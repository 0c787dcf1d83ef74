module Time = Xmp_engine.Time

(* Two data centers joined by high-BDP border trunks. Each DC is the
   {!Fat_tree} or {!Leaf_spine} description plus one border router per
   trunk hanging off the exit layer (cores, or spines). Host ids are
   globally unique — DC 0's hosts first, then DC 1's, switches after all
   hosts — so a border router classifies a packet as local or remote
   with one range check.

   On a two-shard cluster each DC is a shard and each trunk a portal
   pair: the trunk delay (10–100 ms) is the epoch lookahead, dwarfing the
   intra-DC event horizon, so domains:1 and domains:N runs stay
   byte-identical at near-zero barrier cost. *)

type dc_spec =
  | Fat_tree_dc of { k : int }
  | Leaf_spine_dc of { leaves : int; spines : int; hosts_per_leaf : int }

type trunk = {
  trunk_rate : Units.rate;
  trunk_delay : Time.t;
  trunk_queue_pkts : int;
  trunk_marking_threshold : int option;
      (* None = droptail (deep-buffer WAN router); Some k = shallow
         ECN-marking border queue, the regime where Eq. 1 sizes K *)
}

let trunk ?(rate = Units.gbps 10.) ?(delay = Time.ms 40)
    ?(queue_pkts = 2000) ?marking_threshold () =
  if Time.compare delay Time.zero <= 0 then
    invalid_arg "Wan.trunk: delay must be positive";
  if queue_pkts < 1 then invalid_arg "Wan.trunk: queue_pkts";
  Option.iter
    (fun k -> if k < 1 then invalid_arg "Wan.trunk: marking_threshold")
    marking_threshold;
  {
    trunk_rate = rate;
    trunk_delay = delay;
    trunk_queue_pkts = queue_pkts;
    trunk_marking_threshold = marking_threshold;
  }

let validate_spec = function
  | Fat_tree_dc { k } ->
    if k < 2 || k mod 2 <> 0 then invalid_arg "Wan: fat-tree k"
  | Leaf_spine_dc { leaves; spines; hosts_per_leaf } ->
    if leaves < 1 || spines < 1 || hosts_per_leaf < 1 then
      invalid_arg "Wan: leaf-spine shape"

let shape = function
  | Fat_tree_dc { k } -> Fat_tree.shape ~k
  | Leaf_spine_dc { leaves; spines; hosts_per_leaf } ->
    Leaf_spine.shape ~leaves ~spines ~hosts_per_leaf

let dc_n_hosts spec = (shape spec).Topology.hosts

(* One-way propagation from a host of this DC to one of its border
   routers: the ascent to the exit layer plus the attach hop. *)
let to_border (s : Topology.shape) =
  Time.add (s.one_way Topology.Inter_dc) s.exit_delay

let build_dc cluster ~shard ~spec ~prefix ~host_base ~switch_base ~n_exits
    ~rate ~disc =
  match spec with
  | Fat_tree_dc { k } ->
    Fat_tree.build cluster ~shard_of_pod:(fun _ -> shard) ~k ~prefix
      ~host_base ~switch_base ~n_exits ~rate ~disc
  | Leaf_spine_dc { leaves; spines; hosts_per_leaf } ->
    Leaf_spine.build cluster ~shard ~leaves ~spines ~hosts_per_leaf ~prefix
      ~host_base ~switch_base ~n_exits ~host_rate:rate ~spine_rate:rate ~disc

(* Border router j: ports 0..n_exits-1 down to the exit switches (in
   selector order), port n_exits out to the WAN trunk. [down] holds
   [path mod n_exits] for every path the other DC's hosts draw; a miss
   falls back to the arithmetic. *)
let[@inline] border_route ~host_base ~n ~n_exits ~down p =
  let i = Packet.dst p - host_base in
  if i >= 0 && i < n then
    let path = Packet.path p in
    let port = Route_table.find down path in
    if port >= 0 then port else path mod n_exits
  else n_exits

let trunk_disc tr () =
  let policy =
    match tr.trunk_marking_threshold with
    | Some k -> Queue_disc.Threshold_mark k
    | None -> Queue_disc.Droptail
  in
  Queue_disc.create ~policy ~capacity_pkts:tr.trunk_queue_pkts

let create ~cluster ~left ~right ~trunks ~disc () =
  validate_spec left;
  validate_spec right;
  if trunks = [] then invalid_arg "Wan: at least one trunk required";
  let shard_of_dc =
    match Shard.n_shards cluster with
    | 1 -> fun _ -> 0
    | 2 -> Fun.id
    | _ -> invalid_arg "Wan.create: cluster must have 1 or 2 shards"
  in
  let specs = [| left; right |] in
  let shapes = Array.map shape specs in
  let tr = Array.of_list trunks in
  let n_trunks = Array.length tr in
  let n0 = shapes.(0).hosts in
  let n_hosts = n0 + shapes.(1).hosts in
  let host_base d = if d = 0 then 0 else n0 in
  let border_base = n_hosts + shapes.(0).switches + shapes.(1).switches in
  let exits =
    Array.mapi
      (fun d spec ->
        build_dc cluster ~shard:(shard_of_dc d) ~spec
          ~prefix:(Printf.sprintf "d%d." d)
          ~host_base:(host_base d)
          ~switch_base:(if d = 0 then n_hosts else n_hosts + shapes.(0).switches)
          ~n_exits:n_trunks ~rate:(Units.gbps 1.) ~disc)
      specs
  in
  let borders =
    Array.mapi
      (fun d ex ->
        let s = shard_of_dc d in
        let bs =
          Array.init n_trunks (fun j ->
              ( s,
                Network.add_switch_at (Shard.net cluster s)
                  ~id:(border_base + (d * n_trunks) + j)
                  ~name:(Printf.sprintf "d%d.bdr%d" d j) ))
        in
        (* j outer, exits inner: exit switch port for border j is
           (standard ports) + j, matching the exit-layer routing *)
        Array.iteri
          (fun j b ->
            Array.iter
              (fun e ->
                ignore
                  (Shard.connect cluster ~tag:"border"
                     ~rate:tr.(j).trunk_rate ~delay:shapes.(d).exit_delay ~disc
                     e b))
              ex)
          bs;
        let host_base = host_base d and n = shapes.(d).hosts in
        let n_exits = Array.length ex in
        let down =
          Route_table.make
            (shapes.(1 - d).paths Topology.Inter_dc * n_trunks)
            (fun path -> path mod n_exits)
        in
        let route p = border_route ~host_base ~n ~n_exits ~down p in
        Array.iter (fun (_, b) -> Node.set_route b route) bs;
        bs)
      exits
  in
  (* WAN trunks last: border j's trunk port is its port n_exits. *)
  Array.iteri
    (fun j trk ->
      ignore
        (Shard.connect cluster ~tag:"wan" ~rate:trk.trunk_rate
           ~delay:trk.trunk_delay ~disc:(trunk_disc trk) borders.(0).(j)
           borders.(1).(j)))
    tr;
  let min_trunk_delay =
    List.fold_left (fun acc t -> Time.min acc t.trunk_delay) Time.infinity
      trunks
  in
  let dc_of i = if i < n0 then 0 else 1 in
  let locality ~src ~dst =
    let ds = dc_of src in
    if ds <> dc_of dst then Topology.Inter_dc
    else shapes.(ds).classify (src - host_base ds) (dst - host_base ds)
  in
  let n_paths ~src ~dst =
    (* cross-DC: the selector's low stratum spreads over the source
       tree's exit layer, the next one picks the trunk (the destination
       DC reuses the low stratum for descent) *)
    let s = shapes.(dc_of src) in
    match locality ~src ~dst with
    | Topology.Inter_dc -> s.paths Topology.Inter_dc * n_trunks
    | loc -> s.paths loc
  in
  let zero_load_rtt ~src ~dst =
    let s = shapes.(dc_of src) in
    let one_way =
      match locality ~src ~dst with
      | Topology.Inter_dc ->
        Time.add (to_border s)
          (Time.add min_trunk_delay (to_border shapes.(dc_of dst)))
      | loc -> s.one_way loc
    in
    Time.mul one_way 2
  in
  {
    Topology.cluster;
    n_hosts;
    shard_of_host = (fun i -> shard_of_dc (dc_of i));
    locality;
    n_paths;
    zero_load_rtt;
    dc_ranges = [| (0, n0); (n0, n_hosts - n0) |];
  }

(* The slowest cross-DC path's zero-load RTT, from the specs alone, so
   callers can size RTO floors and horizons before any network exists. *)
let max_rtt_no_queue_of ~left ~right ~trunks =
  validate_spec left;
  validate_spec right;
  if trunks = [] then invalid_arg "Wan.max_rtt_no_queue_of: no trunks";
  let max_trunk =
    List.fold_left (fun acc tr -> Time.max acc tr.trunk_delay) Time.zero trunks
  in
  Time.mul
    (Time.add (to_border (shape left))
       (Time.add max_trunk (to_border (shape right))))
    2
