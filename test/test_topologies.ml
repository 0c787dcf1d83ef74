module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Network = Xmp_net.Network
module Node = Xmp_net.Node
module Packet = Xmp_net.Packet
module Queue_disc = Xmp_net.Queue_disc
module Testbed = Xmp_net.Testbed
module Fat_tree = Xmp_net.Fat_tree

let disc () = Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:100

let mk_testbed ?(n_left = 2) ?(n_right = 2) ?(m = 2) sim =
  let net = Network.create sim in
  let spec =
    { Testbed.rate = Net.Units.gbps 1.; delay = Time.us 10; disc }
  in
  let tb =
    Testbed.create ~net ~n_left ~n_right
      ~bottlenecks:(List.init m (fun _ -> spec))
      ~access_delay:(Time.us 5) ()
  in
  (net, tb)

(* ----- Testbed ----- *)

let send_and_await net ~src ~dst ~path =
  let sim = Network.sim net in
  let got = ref None in
  Network.register_endpoint net ~host:dst ~flow:1 ~subflow:0 (fun p ->
      got := Some (Sim.now sim, p));
  Node.send
    (Network.node net src)
    (Packet.data ~flow:1 ~subflow:0 ~src ~dst
       ~path ~seq:0 ~ect:false ~cwr:false ~ts:0);
  Sim.run sim;
  Network.unregister_endpoint net ~host:dst ~flow:1 ~subflow:0;
  !got

let test_testbed_forward_paths () =
  let sim = Sim.create () in
  let net, tb = mk_testbed sim in
  (* every (left, right, path) combination is routable *)
  for i = 0 to 1 do
    for j = 0 to 1 do
      for path = 0 to 1 do
        match
          send_and_await net ~src:(Testbed.left_id tb i)
            ~dst:(Testbed.right_id tb j) ~path
        with
        | Some _ -> ()
        | None ->
          Alcotest.failf "no delivery for left %d right %d path %d" i j path
      done
    done
  done

let test_testbed_reverse_path () =
  let sim = Sim.create () in
  let net, tb = mk_testbed sim in
  (* right-to-left (the ACK direction) also works on both paths *)
  for path = 0 to 1 do
    match
      send_and_await net
        ~src:(Testbed.right_id tb 0)
        ~dst:(Testbed.left_id tb 1) ~path
    with
    | Some _ -> ()
    | None -> Alcotest.failf "no reverse delivery on path %d" path
  done

let test_testbed_path_selects_bottleneck () =
  let sim = Sim.create () in
  let net, tb = mk_testbed sim in
  ignore
    (send_and_await net ~src:(Testbed.left_id tb 0)
       ~dst:(Testbed.right_id tb 0) ~path:1);
  Alcotest.(check int) "bottleneck 0 unused" 0
    (Net.Link.packets_sent (Bottleneck.fwd net 0));
  Alcotest.(check int) "bottleneck 1 carried it" 1
    (Net.Link.packets_sent (Bottleneck.fwd net 1))

let test_testbed_delay_budget () =
  let sim = Sim.create () in
  let net, tb = mk_testbed sim in
  (* one-way prop = 2 * access + bottleneck = 2*5 + 10 = 20 us, plus
     serialization 12us * 3 hops at 1G/10G... compute exactly:
     access links are 10 Gbps (1.2 us each), bottleneck 1 Gbps (12 us). *)
  match
    send_and_await net ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0) ~path:0
  with
  | Some (at, _) -> Alcotest.(check int) "arrival time" (Time.ns 34_400) at
  | None -> Alcotest.fail "no delivery"

let test_testbed_down () =
  let sim = Sim.create () in
  let net, tb = mk_testbed sim in
  Bottleneck.set_up net 0 false;
  Alcotest.(check bool) "none delivered" true
    (send_and_await net ~src:(Testbed.left_id tb 0)
       ~dst:(Testbed.right_id tb 0) ~path:0
    = None);
  Bottleneck.set_up net 0 true;
  Alcotest.(check bool) "recovered" true
    (send_and_await net ~src:(Testbed.left_id tb 0)
       ~dst:(Testbed.right_id tb 0) ~path:0
    <> None)

let test_testbed_validation () =
  let sim = Sim.create () in
  let net = Network.create sim in
  Alcotest.check_raises "no bottlenecks"
    (Invalid_argument "Testbed.create: bottlenecks") (fun () ->
      ignore (Testbed.create ~net ~n_left:1 ~n_right:1 ~bottlenecks:[] ()))

(* ----- Fat tree ----- *)

let mk_fat_tree ?(k = 4) () =
  let cluster = Net.Shard.create ~shards:1 () in
  let ft = Fat_tree.create ~cluster ~k ~disc () in
  (Net.Shard.net cluster 0, ft)

let test_fat_tree_structure () =
  let net, ft = mk_fat_tree () in
  Alcotest.(check int) "hosts" 16 ft.n_hosts;
  (* 16 hosts + 8 edge + 8 agg + 4 core = 36 nodes *)
  Alcotest.(check int) "nodes" 36 (Network.n_nodes net);
  (* directed links: rack 16*2, aggregation 16*2, core 16*2 *)
  Alcotest.(check int) "links" 96 (List.length (Network.links net));
  List.iter
    (fun layer ->
      Alcotest.(check int)
        (layer ^ " links")
        (if List.mem layer [ "core"; "aggregation"; "rack" ] then 32 else 0)
        (List.length (Network.links_tagged net layer)))
    Net.Topology.layers

let test_fat_tree_k8_structure () =
  let net, ft = mk_fat_tree ~k:8 () in
  Alcotest.(check int) "hosts" 128 ft.n_hosts;
  (* 128 hosts + 32 edge + 32 agg + 16 core = 208 *)
  Alcotest.(check int) "nodes" 208 (Network.n_nodes net)

let test_locality () =
  let _, ft = mk_fat_tree () in
  (* k=4: hosts 0,1 share an edge; 0..3 share a pod *)
  Alcotest.(check bool) "inner rack" true
    (ft.locality ~src:0 ~dst:1 = Fat_tree.Inner_rack);
  Alcotest.(check bool) "inter rack" true
    (ft.locality ~src:0 ~dst:2 = Fat_tree.Inter_rack);
  Alcotest.(check bool) "inter pod" true
    (ft.locality ~src:0 ~dst:4 = Fat_tree.Inter_pod)

let test_n_paths () =
  let _, ft = mk_fat_tree () in
  Alcotest.(check int) "inner rack" 1 (ft.n_paths ~src:0 ~dst:1);
  Alcotest.(check int) "inter rack" 2 (ft.n_paths ~src:0 ~dst:2);
  Alcotest.(check int) "inter pod" 4 (ft.n_paths ~src:0 ~dst:4)

(* Host index [i] is node id [i]: its name decodes back to [i], and the
   first id past the hosts is a switch. *)
let test_host_id_roundtrip () =
  let net, ft = mk_fat_tree () in
  for i = 0 to ft.n_hosts - 1 do
    let node = Network.node net i in
    Alcotest.(check bool) "is a host" true (Node.kind node = Node.Host);
    Scanf.sscanf (Node.name node) "h%d.%d.%d" (fun pod edge slot ->
        Alcotest.(check int) "roundtrip" i ((pod * 4) + (edge * 2) + slot))
  done;
  Alcotest.(check bool) "switch after the hosts" true
    (Node.kind (Network.node net ft.n_hosts) = Node.Switch)

let test_fat_tree_all_pairs_routable () =
  let net, ft = mk_fat_tree () in
  let n = ft.n_hosts in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let paths = ft.n_paths ~src ~dst in
        for path = 0 to paths - 1 do
          match send_and_await net ~src ~dst ~path with
          | Some _ -> ()
          | None -> Alcotest.failf "unroutable %d->%d path %d" src dst path
        done
      end
    done
  done

let test_fat_tree_path_diversity () =
  (* distinct inter-pod path selectors traverse distinct core switches:
     with 4 selectors and one probe each, the 4 core uplink pairs each see
     exactly one packet *)
  let net, _ = mk_fat_tree () in
  for path = 0 to 3 do
    ignore (send_and_await net ~src:0 ~dst:12 ~path)
  done;
  let core_links = Network.links_tagged net "core" in
  let used =
    List.filter (fun l -> Net.Link.packets_sent l > 0) core_links
  in
  (* each probe crosses 2 directed core links (up to core, down from
     core), all distinct across the 4 selectors *)
  Alcotest.(check int) "8 distinct core links used" 8 (List.length used);
  List.iter
    (fun l ->
      Alcotest.(check int) "each used once" 1 (Net.Link.packets_sent l))
    used

let test_fat_tree_ack_path_symmetry () =
  (* a reply with the same path selector crosses the same core switch *)
  let net, _ = mk_fat_tree () in
  let src = 0 and dst = 12 in
  ignore (send_and_await net ~src ~dst ~path:3);
  ignore (send_and_await net ~src:dst ~dst:src ~path:3);
  (* a switch forwards every packet it receives out of one of its ports *)
  let forwarded node =
    List.fold_left ( + ) 0
      (List.init (Node.n_ports node) (fun i ->
           Net.Link.packets_sent (Node.port node i)))
  in
  let core_nodes_used = ref 0 in
  for i = 0 to Network.n_nodes net - 1 do
    let node = Network.node net i in
    if
      String.length (Node.name node) > 0
      && (Node.name node).[0] = 'c'
      && forwarded node > 0
    then begin
      incr core_nodes_used;
      Alcotest.(check int) "core forwarded both directions" 2
        (forwarded node)
    end
  done;
  Alcotest.(check int) "exactly one core switch touched" 1 !core_nodes_used

let test_fat_tree_validation () =
  let cluster = Net.Shard.create ~shards:1 () in
  Alcotest.check_raises "odd k" (Invalid_argument "Fat_tree.create: k")
    (fun () -> ignore (Fat_tree.create ~cluster ~k:3 ~disc ()))

let test_max_rtt () =
  let _, ft = mk_fat_tree () in
  (* 2 * 2 * (20 + 30 + 40) us = 360 us *)
  Alcotest.(check int) "zero-load inter-pod RTT" (Time.us 360)
    (ft.zero_load_rtt ~src:0 ~dst:12)

(* ----- placement equivalence -----

   A topology is one description built on a cluster; only the links
   whose ends land on different shards may differ, by becoming portals.
   These helpers compare a one-shard build with a sharded one. *)

(* Node [id] of the cluster, as (shard, node); ids must be 0..n-1. *)
let placed cluster =
  let shards = Net.Shard.n_shards cluster in
  let n =
    List.fold_left ( + ) 0
      (List.init shards (fun s -> Network.n_nodes (Net.Shard.net cluster s)))
  in
  Array.init n (fun id ->
      let rec find s =
        match Network.node (Net.Shard.net cluster s) id with
        | node -> (s, node)
        | exception Invalid_argument _ -> find (s + 1)
      in
      find 0)

let peer_name l =
  let name = Net.Link.name l in
  let i = String.index name '>' in
  String.sub name (i + 1) (String.length name - i - 1)

let port_peers node =
  List.init (Node.n_ports node) (fun p -> peer_name (Node.port node p))

(* Sends one probe per (src, dst, path) and returns, per probe, the names
   of the links it crossed, taken by a drop filter that drops nothing. *)
let walks (view : Net.Topology.t) =
  let cluster = view.cluster in
  let hops = Hashtbl.create 1024 in
  for s = 0 to Net.Shard.n_shards cluster - 1 do
    List.iter
      (fun l ->
        Net.Link.set_drop_filter l
          (Some
             (fun p ->
               let seq = Packet.seq p in
               let walked =
                 Option.value ~default:[] (Hashtbl.find_opt hops seq)
               in
               Hashtbl.replace hops seq (Net.Link.name l :: walked);
               false)))
      (Network.links (Net.Shard.net cluster s))
  done;
  let probes = ref [] in
  for src = 0 to view.n_hosts - 1 do
    for dst = 0 to view.n_hosts - 1 do
      if src <> dst then
        for path = 0 to view.n_paths ~src ~dst - 1 do
          let seq = List.length !probes in
          probes := (src, dst, path, seq) :: !probes;
          let shard = view.shard_of_host src in
          Sim.at (Net.Shard.sim cluster shard) (Time.us (10 * seq)) (fun () ->
              Node.send
                (Network.node (Net.Shard.net cluster shard) src)
                (Packet.data ~flow:1 ~subflow:0 ~src ~dst ~path ~seq ~ect:false
                   ~cwr:false ~ts:0))
        done
    done
  done;
  Net.Shard.run cluster;
  List.rev_map
    (fun (src, dst, path, seq) ->
      ( Printf.sprintf "%d->%d/%d" src dst path,
        List.rev (Option.value ~default:[] (Hashtbl.find_opt hops seq)) ))
    !probes

(* [flat] and [sharded] are views of the same description built on one
   shard and on several. *)
let check_placement ~(flat : Net.Topology.t) ~(sharded : Net.Topology.t)
    ~lookahead =
  let a = placed flat.cluster and b = placed sharded.cluster in
  Alcotest.(check int) "same node count" (Array.length a) (Array.length b);
  let shard_of_name = Hashtbl.create 64 in
  Array.iter (fun (s, n) -> Hashtbl.replace shard_of_name (Node.name n) s) b;
  Array.iteri
    (fun id ((_, na), (sb, nb)) ->
      let name = Node.name na in
      Alcotest.(check string) (Printf.sprintf "node %d name" id) name
        (Node.name nb);
      Alcotest.(check (list string)) (name ^ " port peers") (port_peers na)
        (port_peers nb);
      for p = 0 to Node.n_ports nb - 1 do
        let l = Node.port nb p in
        (* a portal's propagation is applied across the epoch barrier,
           so its egress link itself has zero delay *)
        Alcotest.(check bool)
          (Net.Link.name l ^ " is a portal iff it crosses shards")
          (Hashtbl.find shard_of_name (peer_name l) <> sb)
          (Net.Link.delay l = Time.zero)
      done)
    (Array.map2 (fun x y -> (x, y)) a b);
  Alcotest.(check int) "flat build has no portals" Time.infinity
    (Net.Shard.epoch_delta flat.cluster);
  Alcotest.(check int) "lookahead" lookahead
    (Net.Shard.epoch_delta sharded.cluster);
  let walked = walks flat in
  Alcotest.(check bool) "probes sent" true (List.length walked > 100);
  Alcotest.(check (list (pair string (list string))))
    "every (src, dst, path) walks the same hops" walked (walks sharded)

let test_fat_tree_placement () =
  let build shards =
    Fat_tree.create ~cluster:(Net.Shard.create ~shards ()) ~k:4 ~disc ()
  in
  check_placement ~flat:(build 1) ~sharded:(build 4) ~lookahead:(Time.us 40);
  Alcotest.check_raises "other shard counts"
    (Invalid_argument "Fat_tree.create: cluster must have 1 or k shards")
    (fun () -> ignore (build 2))

let suite =
  [
    Alcotest.test_case "testbed forward paths" `Quick
      test_testbed_forward_paths;
    Alcotest.test_case "testbed reverse path" `Quick
      test_testbed_reverse_path;
    Alcotest.test_case "path selects bottleneck" `Quick
      test_testbed_path_selects_bottleneck;
    Alcotest.test_case "testbed delay budget" `Quick
      test_testbed_delay_budget;
    Alcotest.test_case "testbed bottleneck down" `Quick test_testbed_down;
    Alcotest.test_case "testbed validation" `Quick test_testbed_validation;
    Alcotest.test_case "fat tree structure (k=4)" `Quick
      test_fat_tree_structure;
    Alcotest.test_case "fat tree structure (k=8)" `Quick
      test_fat_tree_k8_structure;
    Alcotest.test_case "locality classes" `Quick test_locality;
    Alcotest.test_case "path counts" `Quick test_n_paths;
    Alcotest.test_case "host id roundtrip" `Quick test_host_id_roundtrip;
    Alcotest.test_case "all pairs routable" `Quick
      test_fat_tree_all_pairs_routable;
    Alcotest.test_case "core path diversity" `Quick
      test_fat_tree_path_diversity;
    Alcotest.test_case "ack path symmetry" `Quick
      test_fat_tree_ack_path_symmetry;
    Alcotest.test_case "fat tree validation" `Quick test_fat_tree_validation;
    Alcotest.test_case "zero-load RTT" `Quick test_max_rtt;
    Alcotest.test_case "one-shard and pod-sharded builds agree" `Quick
      test_fat_tree_placement;
  ]
