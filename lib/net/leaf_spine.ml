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

(* Routing state shared by every switch of one fabric: hosts
   [host_base, host_base + n) are local, the rest leave through one of
   [n_exits] border routers. *)
type routes = {
  host_base : int;
  n : int;
  leaves : int;
  spines : int;
  hosts_per_leaf : int;
  n_exits : int;
  leaf_of : Route_table.t;  (* host index -> leaf *)
  leaf_up : Route_table.t;  (* path -> a leaf's uplink *)
  spine_up : Route_table.t;  (* path -> a spine's border port *)
}

(* The port arithmetic the tables hold. *)
let leaf_uplink ~hosts_per_leaf ~spines path =
  hosts_per_leaf + (path mod spines)

let spine_uplink ~leaves ~spines ~n_exits path =
  leaves + (path / spines mod n_exits)

let routes ~leaves ~spines ~hosts_per_leaf ~host_base ~n_exits =
  let n = leaves * hosts_per_leaf in
  (* the largest path count a source in this fabric draws *)
  let paths = spines * Int.max 1 n_exits in
  {
    host_base;
    n;
    leaves;
    spines;
    hosts_per_leaf;
    n_exits;
    leaf_of = Route_table.make n (fun i -> i / hosts_per_leaf);
    leaf_up = Route_table.make paths (leaf_uplink ~hosts_per_leaf ~spines);
    spine_up =
      Route_table.make
        (if n_exits > 0 then paths else 0)
        (spine_uplink ~leaves ~spines ~n_exits);
  }

(* A leaf delivers to its own hosts (from [lo]) and sends the rest up. *)
let[@inline] leaf_route r ~lo p =
  let slot = Packet.dst p - lo in
  if slot >= 0 && slot < r.hosts_per_leaf then slot
  else
    let path = Packet.path p in
    let port = Route_table.find r.leaf_up path in
    if port >= 0 then port
    else leaf_uplink ~hosts_per_leaf:r.hosts_per_leaf ~spines:r.spines path

let[@inline] spine_route r p =
  let i = Packet.dst p - r.host_base in
  if i >= 0 && i < r.n then
    let leaf = Route_table.find r.leaf_of i in
    if leaf >= 0 then leaf else i / r.hosts_per_leaf
  else
    let path = Packet.path p in
    let port = Route_table.find r.spine_up path in
    if port >= 0 then port
    else
      spine_uplink ~leaves:r.leaves ~spines:r.spines ~n_exits:r.n_exits path

let build cluster ~shard ~leaves ~spines ~hosts_per_leaf ~prefix ~host_base
    ~switch_base ~n_exits ~host_rate ~spine_rate ~disc =
  let net = Shard.net cluster shard in
  let n = leaves * hosts_per_leaf in
  let hosts =
    Xmp_engine.Tables.init n (fun i ->
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
  (* Leaves test [dst] against their own hosts; the spine's leaf index
     and each layer's uplink by [path] come from tables built once for
     the fabric, and a table miss falls back to the arithmetic. All
     spines share one route closure. *)
  let routes = routes ~leaves ~spines ~hosts_per_leaf ~host_base ~n_exits in
  Array.iter (fun h -> Node.set_route h (fun _ -> 0)) hosts;
  Array.iteri
    (fun l sw ->
      let lo = host_base + (l * hosts_per_leaf) in
      Node.set_route sw (fun p -> leaf_route routes ~lo p))
    leaf_sw;
  let f p = spine_route routes p in
  Array.iter (fun sw -> Node.set_route sw f) spine_sw;
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
