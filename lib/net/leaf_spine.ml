module Time = Xmp_engine.Time

(* One-way delays of the host and spine layers. *)
let host_delay = Time.us 20
let spine_delay = Time.us 30

let shape ~leaves ~spines ~hosts_per_leaf =
  let ascent = Time.add host_delay spine_delay in
  {
    Topology.hosts = leaves * hosts_per_leaf;
    switches = leaves + spines;
    classify =
      (fun src dst ->
        if src / hosts_per_leaf = dst / hosts_per_leaf then Topology.Inner_rack
        else Topology.Inter_rack);
    paths = (function Topology.Inner_rack -> 1 | _ -> spines);
    one_way =
      (function
      | Topology.Inner_rack -> Time.mul host_delay 2
      | Topology.Inter_dc -> ascent
      | Topology.Inter_rack | Topology.Inter_pod -> Time.mul ascent 2);
    exit_delay = spine_delay;
  }

let build cluster ~shard ~leaves ~spines ~hosts_per_leaf ~prefix ~host_base
    ~switch_base ~n_exits ~host_rate ~spine_rate ~disc =
  let net = Shard.net cluster shard in
  let n = leaves * hosts_per_leaf in
  let hosts =
    Array.init n (fun i ->
        Network.add_host_at net ~id:(host_base + i)
          ~name:
            (Printf.sprintf "%sh%d.%d" prefix (i / hosts_per_leaf)
               (i mod hosts_per_leaf)))
  in
  let switches base count name =
    Array.init count (fun j ->
        Network.add_switch_at net ~id:(base + j)
          ~name:(Printf.sprintf "%s%s%d" prefix name j))
  in
  let leaf_sw = switches switch_base leaves "leaf" in
  let spine_sw = switches (switch_base + leaves) spines "spine" in
  (* host [slot] <-> its leaf: leaf port [slot] points at the host;
     leaf <-> spine: leaf port [hosts_per_leaf + s], spine port [l], and
     spine port [leaves + j] is border router [j] *)
  let link tag rate delay a b =
    ignore (Shard.connect cluster ~tag ~rate ~delay ~disc (shard, a) (shard, b))
  in
  Array.iteri
    (fun i h -> link "leaf" host_rate host_delay h leaf_sw.(i / hosts_per_leaf))
    hosts;
  Array.iter
    (fun l -> Array.iter (link "spine" spine_rate spine_delay l) spine_sw)
    leaf_sw;
  let local dst = dst >= host_base && dst < host_base + n in
  let leaf_of id = (id - host_base) / hosts_per_leaf in
  let slot_of id = (id - host_base) mod hosts_per_leaf in
  Array.iter (fun h -> Node.set_route h (fun _ -> 0)) hosts;
  Array.iteri
    (fun l sw ->
      Node.set_route sw (fun p ->
          let dst = Packet.dst p in
          if local dst && leaf_of dst = l then slot_of dst
          else hosts_per_leaf + (Packet.path p mod spines)))
    leaf_sw;
  Array.iter
    (fun sw ->
      Node.set_route sw (fun p ->
          let dst = Packet.dst p in
          if local dst then leaf_of dst
          else leaves + (Packet.path p / spines mod n_exits)))
    spine_sw;
  Array.map (fun sw -> (shard, sw)) spine_sw

let create ~cluster ~leaves ~spines ~hosts_per_leaf ~disc () =
  if leaves < 1 || spines < 1 || hosts_per_leaf < 1 then
    invalid_arg "Leaf_spine.create";
  if Shard.n_shards cluster <> 1 then
    invalid_arg "Leaf_spine.create: cluster must have one shard";
  ignore
    (build cluster ~shard:0 ~leaves ~spines ~hosts_per_leaf ~prefix:""
       ~host_base:0 ~switch_base:(leaves * hosts_per_leaf) ~n_exits:0
       ~host_rate:(Units.gbps 1.) ~spine_rate:(Units.gbps 10.) ~disc);
  Topology.of_shape ~cluster
    ~shard_of_host:(fun _ -> 0)
    (shape ~leaves ~spines ~hosts_per_leaf)
