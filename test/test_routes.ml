(* Route equivalence: every switch forwards each packet over exactly the
   links that the plain port arithmetic names. The arithmetic below is
   the reference, written once: the routes the topology builders install
   look their quotients up in tables instead, and must agree with it for
   every (src, dst, path) with path < 2 · n_paths, and for the largest
   path selector, past every table. A packet's links are observed through
   [Link.packets_sent]: each link the reference names must count the
   packet once, and once every packet has run, all links together must
   count exactly the hops the reference named, so no packet took a link
   the reference did not name. *)

module Net = Xmp_net
module Time = Xmp_engine.Time
module Node = Net.Node
module Link = Net.Link
module Network = Net.Network
module Shard = Net.Shard
module Wan = Net.Wan

(* ---- the reference ---- *)

(* One DC's geometry: hosts [host_base, host_base + n) and [n_exits]
   border routers. *)
type dc = {
  spec : Wan.dc_spec;
  host_base : int;
  n_exits : int;
}

let dc_hosts = function
  | Wan.Fat_tree_dc { k } -> k * k * k / 4
  | Wan.Leaf_spine_dc { leaves; hosts_per_leaf; _ } -> leaves * hosts_per_leaf

(* Exit switches a border router fans down to. *)
let dc_exits = function
  | Wan.Fat_tree_dc { k } -> k / 2 * (k / 2)
  | Wan.Leaf_spine_dc { spines; _ } -> spines

(* The switch named [kind] with numbers [nums] (prefix stripped) sends a
   packet for [dst] with selector [path] out of this port. *)
let reference_port dc ~kind ~nums ~dst ~path =
  let n = dc_hosts dc.spec in
  let local = dst >= dc.host_base && dst < dc.host_base + n in
  let i = dst - dc.host_base in
  match (dc.spec, kind, nums) with
  | _, "h", _ -> 0
  | _, "bdr", _ ->
    let exits = dc_exits dc.spec in
    if local then path mod exits else exits
  | Wan.Fat_tree_dc { k }, _, pod :: e :: _ -> (
    let half = k / 2 in
    let pod_of = i / (half * half) in
    let edge_of = i mod (half * half) / half in
    match kind with
    | "e" ->
      if local && pod_of = pod && edge_of = e then i mod half
      else if local && pod_of = pod then half + (path mod half)
      else half + (path / half mod half)
    | "a" -> if local && pod_of = pod then edge_of else half + (path mod half)
    | "c" ->
      if local then pod_of else k + (path / (half * half) mod dc.n_exits)
    | _ -> Alcotest.failf "no fat-tree switch %s" kind)
  | Wan.Leaf_spine_dc { leaves; spines; hosts_per_leaf }, _, l :: _ -> (
    let leaf_of = i / hosts_per_leaf in
    match kind with
    | "leaf" ->
      if local && leaf_of = l then i mod hosts_per_leaf
      else hosts_per_leaf + (path mod spines)
    | "spine" ->
      if local then leaf_of else leaves + (path / spines mod dc.n_exits)
    | _ -> Alcotest.failf "no leaf-spine switch %s" kind)
  | _ -> Alcotest.failf "unparsed switch %s" kind

(* A node name, prefix ("d0.") stripped, as its kind and numbers:
   "e1.0" is ("e", [1; 0]), "bdr1" ("bdr", [1]), "h2.1.0" ("h", ...). *)
let parse name =
  let is_digit c = c >= '0' && c <= '9' in
  let j = ref 0 in
  while !j < String.length name && not (is_digit name.[!j]) do
    incr j
  done;
  let kind = String.sub name 0 !j in
  let rest = String.sub name !j (String.length name - !j) in
  (kind, List.map int_of_string (String.split_on_char '.' rest))

(* The DC a node belongs to and its name within the DC. *)
let locate dcs name =
  if Array.length dcs = 1 then (dcs.(0), name)
  else (dcs.(Char.code name.[1] - Char.code '0'), String.sub name 3 (String.length name - 3))

(* ---- the rig ---- *)

type rig = {
  cluster : Shard.t;
  dcs : dc array;
  n_hosts : int;
  n_paths : src:int -> dst:int -> int;
  nodes : (string, Node.t) Hashtbl.t;
  by_id : Node.t array;
  shard_of : int array;  (* node id -> shard *)
  links : Link.t list;
}

let disc () =
  Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail ~capacity_pkts:100

let rig ~shards build dcs =
  let cluster = Shard.create ~shards () in
  let (topo : Net.Topology.t) = build cluster in
  let nets = List.init shards (Shard.net cluster) in
  let n_nodes =
    List.fold_left (fun acc net -> acc + Network.n_nodes net) 0 nets
  in
  let placed =
    Array.init n_nodes (fun id ->
        match
          List.find_mapi
            (fun s net -> Option.map (fun n -> (s, n)) (Network.find_node net id))
            nets
        with
        | Some placed -> placed
        | None -> Alcotest.failf "node %d on no shard" id)
  in
  let by_id = Array.map snd placed in
  let nodes = Hashtbl.create n_nodes in
  Array.iter (fun node -> Hashtbl.replace nodes (Node.name node) node) by_id;
  {
    cluster;
    dcs;
    n_hosts = topo.n_hosts;
    n_paths = topo.n_paths;
    nodes;
    by_id;
    shard_of = Array.map fst placed;
    links = List.concat_map Network.links nets;
  }

(* The links the reference sends [src -> dst] over on [path]. *)
let reference_links r ~src ~dst ~path =
  let rec walk node hops acc =
    if Node.id node = dst then List.rev acc
    else if hops > 12 then
      Alcotest.failf "%d -> %d path %d: the reference loops" src dst path
    else begin
      let dc, local_name = locate r.dcs (Node.name node) in
      let kind, nums = parse local_name in
      let link =
        Node.port node (reference_port dc ~kind ~nums ~dst ~path)
      in
      let name = Link.name link in
      let far =
        let i = String.index name '>' in
        String.sub name (i + 1) (String.length name - i - 1)
      in
      walk (Hashtbl.find r.nodes far) (hops + 1) (link :: acc)
    end
  in
  walk r.by_id.(src) 0 []

(* The largest path selector a packet carries: past every table. *)
let max_path = 1023

(* Sends one packet at a time and returns how many were sent. *)
let check_rig r =
  let now = ref Time.zero in
  let hops = ref 0 in
  let sent = ref 0 in
  for src = 0 to r.n_hosts - 1 do
    for dst = 0 to r.n_hosts - 1 do
      if src <> dst then begin
        let paths = r.n_paths ~src ~dst in
        let probe path =
          let expected = reference_links r ~src ~dst ~path in
          let before = List.map Link.packets_sent expected in
          (* sent from inside the run, at a time every shard has
             reached, as a transport sends *)
          let at = Time.add !now (Time.us 1) in
          Xmp_engine.Sim.at (Shard.sim r.cluster r.shard_of.(src)) at (fun () ->
              Node.send r.by_id.(src)
                (Net.Packet.data ~flow:1 ~subflow:0 ~src ~dst ~path ~seq:0
                   ~ect:false ~cwr:false ~ts:at));
          now := Time.add !now (Time.ms 1);
          Shard.run ~until:!now r.cluster;
          List.iter2
            (fun link b ->
              if Link.packets_sent link <> b + 1 then
                Alcotest.failf "%d -> %d path %d: no packet on %s" src dst
                  path (Link.name link))
            expected before;
          hops := !hops + List.length expected;
          incr sent
        in
        for path = 0 to (2 * paths) - 1 do
          probe path
        done;
        probe max_path
      end
    done
  done;
  let total =
    List.fold_left (fun acc l -> acc + Link.packets_sent l) 0 r.links
  in
  Alcotest.(check int)
    (Printf.sprintf "%d packets cross only the links the reference names"
       !sent)
    !hops total

let fat_tree ~k ~shards () =
  let dc = { spec = Wan.Fat_tree_dc { k }; host_base = 0; n_exits = 0 } in
  check_rig
    (rig ~shards
       (fun cluster -> Net.Fat_tree.create ~cluster ~k ~disc ())
       [| dc |])

let leaf_spine () =
  let leaves = 5 and spines = 3 and hosts_per_leaf = 3 in
  let dc =
    {
      spec = Wan.Leaf_spine_dc { leaves; spines; hosts_per_leaf };
      host_base = 0;
      n_exits = 0;
    }
  in
  check_rig
    (rig ~shards:1
       (fun cluster ->
         Net.Leaf_spine.create ~cluster ~leaves ~spines ~hosts_per_leaf ~disc
           ())
       [| dc |])

(* A leaf-spine DC bridged to a k=4 fat tree, over [trunks] trunks. *)
let bridged ~trunks ~shards () =
  let left = Wan.Leaf_spine_dc { leaves = 4; spines = 2; hosts_per_leaf = 4 }
  and right = Wan.Fat_tree_dc { k = 4 } in
  let trunk = Wan.trunk ~delay:(Time.us 100) () in
  let dcs =
    [|
      { spec = left; host_base = 0; n_exits = trunks };
      { spec = right; host_base = dc_hosts left; n_exits = trunks };
    |]
  in
  check_rig
    (rig ~shards
       (fun cluster ->
         Wan.create ~cluster ~left ~right ~trunks:(List.init trunks (fun _ -> trunk))
           ~disc ())
       dcs)

let suite =
  [
    Alcotest.test_case "fat tree k=4" `Quick (fat_tree ~k:4 ~shards:1);
    Alcotest.test_case "fat tree k=4, pod-sharded" `Quick
      (fat_tree ~k:4 ~shards:4);
    Alcotest.test_case "fat tree k=6" `Quick (fat_tree ~k:6 ~shards:1);
    Alcotest.test_case "fat tree k=6, pod-sharded" `Quick
      (fat_tree ~k:6 ~shards:6);
    Alcotest.test_case "fat tree k=8" `Slow (fat_tree ~k:8 ~shards:1);
    Alcotest.test_case "fat tree k=8, pod-sharded" `Slow
      (fat_tree ~k:8 ~shards:8);
    Alcotest.test_case "leaf-spine" `Quick leaf_spine;
    Alcotest.test_case "bridged WAN, one trunk" `Quick
      (bridged ~trunks:1 ~shards:1);
    Alcotest.test_case "bridged WAN, two trunks" `Quick
      (bridged ~trunks:2 ~shards:1);
    Alcotest.test_case "bridged WAN, two trunks, two shards" `Quick
      (bridged ~trunks:2 ~shards:2);
  ]
