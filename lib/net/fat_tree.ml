module Time = Xmp_engine.Time

type locality = Topology.locality =
  | Inner_rack
  | Inter_rack
  | Inter_pod
  | Inter_dc

(* One-way layer delays of §5.2.1. *)
let rack_delay = Time.us 20
let agg_delay = Time.us 30
let core_delay = Time.us 40

(* Host index [i] decomposes as (pod, edge, slot) with k/2 hosts per edge
   switch and (k/2)^2 hosts per pod. *)
let decompose ~k i =
  let half = k / 2 in
  let per_pod = half * half in
  (i / per_pod, i mod per_pod / half, i mod half)

let shape ~k =
  let half = k / 2 in
  let ascent = Time.add rack_delay (Time.add agg_delay core_delay) in
  {
    Topology.hosts = k * half * half;
    switches = (2 * k * half) + (half * half);
    classify =
      (fun src dst ->
        let pod_s, edge_s, _ = decompose ~k src
        and pod_d, edge_d, _ = decompose ~k dst in
        if pod_s <> pod_d then Inter_pod
        else if edge_s <> edge_d then Inter_rack
        else Inner_rack);
    paths =
      (function
      | Inner_rack -> 1
      | Inter_rack -> half
      | Inter_pod | Inter_dc -> half * half);
    one_way =
      (function
      | Inner_rack -> Time.mul rack_delay 2
      | Inter_rack -> Time.mul (Time.add rack_delay agg_delay) 2
      | Inter_pod -> Time.mul ascent 2
      | Inter_dc -> ascent);
    exit_delay = core_delay;
  }

(* Core (g, c) is placed with pod (g·k/2 + c) mod k, so on a pod-sharded
   cluster the core layer spreads round-robin over the shards and no
   shard serializes all inter-pod contention. *)
let core_pod ~k g c = ((g * (k / 2)) + c) mod k

(* Routing state shared by every switch of one fabric. Hosts
   [host_base, host_base + n) are local; the rest leave through one of
   [n_exits] border routers. *)
type routes = {
  host_base : int;
  n : int;
  half : int;
  per_pod : int;
  k : int;
  n_exits : int;
  pod_of : Route_table.t;  (* host index -> pod *)
  edge_of : Route_table.t;  (* index within a pod -> edge *)
  edge_up : Route_table.t;  (* path -> an edge's uplink out of its pod *)
  agg_up : Route_table.t;
      (* path -> an aggregation switch's uplink, and an edge's uplink to
         its own pod *)
  core_up : Route_table.t;  (* path -> a core's border port *)
}

(* The port arithmetic the tables hold. *)
let edge_uplink ~half path = half + (path / half mod half)
let agg_uplink ~half path = half + (path mod half)
let core_uplink ~k ~per_pod ~n_exits path = k + (path / per_pod mod n_exits)

let routes ~k ~host_base ~n_exits =
  let half = k / 2 in
  let per_pod = half * half in
  let n = k * per_pod in
  (* the largest path count a source in this fabric draws *)
  let paths = per_pod * Int.max 1 n_exits in
  {
    host_base;
    n;
    half;
    per_pod;
    k;
    n_exits;
    pod_of = Route_table.make n (fun i -> i / per_pod);
    edge_of = Route_table.make per_pod (fun i -> i / half);
    edge_up = Route_table.make paths (edge_uplink ~half);
    agg_up = Route_table.make paths (agg_uplink ~half);
    core_up =
      Route_table.make
        (if n_exits > 0 then paths else 0)
        (core_uplink ~k ~per_pod ~n_exits);
  }

(* An edge switch delivers to its rack, climbs to its own pod's
   aggregation layer, or climbs out of the pod. *)
let[@inline] edge_route r ~pod_lo ~rack_lo p =
  let dst = Packet.dst p in
  let slot = dst - rack_lo in
  if slot >= 0 && slot < r.half then slot
  else
    let path = Packet.path p in
    let i = dst - pod_lo in
    if i >= 0 && i < r.per_pod then
      let port = Route_table.find r.agg_up path in
      if port >= 0 then port else agg_uplink ~half:r.half path
    else
      let port = Route_table.find r.edge_up path in
      if port >= 0 then port else edge_uplink ~half:r.half path

let[@inline] agg_route r ~pod_lo p =
  let i = Packet.dst p - pod_lo in
  if i >= 0 && i < r.per_pod then
    let e = Route_table.find r.edge_of i in
    if e >= 0 then e else i / r.half
  else
    let path = Packet.path p in
    let port = Route_table.find r.agg_up path in
    if port >= 0 then port else agg_uplink ~half:r.half path

let[@inline] core_route r p =
  let i = Packet.dst p - r.host_base in
  if i >= 0 && i < r.n then
    let pod = Route_table.find r.pod_of i in
    if pod >= 0 then pod else i / r.per_pod
  else
    let path = Packet.path p in
    let port = Route_table.find r.core_up path in
    if port >= 0 then port
    else core_uplink ~k:r.k ~per_pod:r.per_pod ~n_exits:r.n_exits path

let build cluster ~shard_of_pod ~k ~prefix ~host_base ~switch_base ~n_exits
    ~rate ~disc =
  let half = k / 2 in
  let n = k * half * half in
  let place add pod id name =
    let s = shard_of_pod pod in
    (s, add (Shard.net cluster s) ~id ~name:(prefix ^ name))
  in
  let hosts =
    Xmp_engine.Tables.init n (fun i ->
        let pod, edge, slot = decompose ~k i in
        place Network.add_host_at pod (host_base + i)
          ("h" ^ string_of_int pod ^ "." ^ string_of_int edge ^ "."
         ^ string_of_int slot))
  in
  let grid rows base letter pod_of =
    Array.init rows (fun r ->
        Array.init half (fun c ->
            place Network.add_switch_at (pod_of r c)
              (base + (r * half) + c)
              (letter ^ string_of_int r ^ "." ^ string_of_int c)))
  in
  let edges = grid k switch_base "e" (fun pod _ -> pod) in
  let aggs = grid k (switch_base + (k * half)) "a" (fun pod _ -> pod) in
  let cores = grid half (switch_base + (2 * k * half)) "c" (core_pod ~k) in
  (* Layer-major wiring fixes the ports routing relies on: a host's
     uplink is its port 0 and edge port [slot] reaches host [slot]; edge
     port [half + a] reaches agg [a], whose port [e] reaches edge [e];
     agg [a]'s port [half + c] reaches core (a, c), whose port [pod]
     reaches that pod and port [k + j] border router [j]. *)
  let link tag delay a b =
    ignore (Shard.connect cluster ~tag ~rate ~delay ~disc a b)
  in
  Array.iteri
    (fun i h ->
      let pod, edge, _ = decompose ~k i in
      link "rack" rack_delay h edges.(pod).(edge))
    hosts;
  Array.iteri
    (fun pod row ->
      Array.iter
        (fun e -> Array.iter (link "aggregation" agg_delay e) aggs.(pod))
        row)
    edges;
  Array.iter
    (fun row ->
      Array.iteri
        (fun a agg -> Array.iter (link "core" core_delay agg) cores.(a))
        row)
    aggs;
  (* Destinations outside [host_base, host_base + n) ascend like
     inter-pod traffic and leave through border [path / (k/2)² mod
     n_exits]. Edge and aggregation switches test [dst] against their
     own rack and pod; the quotients left (an aggregation switch's edge
     index, a core's pod index, each layer's uplink by [path]) come from
     [routes], built once for the fabric. A table miss (a [path] past
     the largest the fabric draws) falls back to the arithmetic. A
     pod's aggregation switches share one route closure, and all cores
     share another. *)
  let routes = routes ~k ~host_base ~n_exits in
  let per_pod = routes.per_pod in
  let route (_, node) f = Node.set_route node f in
  Array.iter (fun h -> route h (fun _ -> 0)) hosts;
  Array.iteri
    (fun pod row ->
      let pod_lo = host_base + (pod * per_pod) in
      Array.iteri
        (fun e sw ->
          let rack_lo = pod_lo + (e * half) in
          route sw (fun p -> edge_route routes ~pod_lo ~rack_lo p))
        row)
    edges;
  Array.iteri
    (fun pod row ->
      let pod_lo = host_base + (pod * per_pod) in
      let f p = agg_route routes ~pod_lo p in
      Array.iter (fun sw -> route sw f) row)
    aggs;
  let f p = core_route routes p in
  Array.iter (Array.iter (fun sw -> route sw f)) cores;
  Array.concat (Array.to_list cores)

let create ~cluster ~k ?(rate = Units.gbps 1.) ~disc () =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Fat_tree.create: k";
  let shard_of_pod =
    match Shard.n_shards cluster with
    | 1 -> fun _ -> 0
    | n when n = k -> Fun.id
    | _ -> invalid_arg "Fat_tree.create: cluster must have 1 or k shards"
  in
  let s = shape ~k in
  ignore
    (build cluster ~shard_of_pod ~k ~prefix:"" ~host_base:0
       ~switch_base:s.hosts ~n_exits:0 ~rate ~disc);
  let per_pod = k / 2 * (k / 2) in
  let shard_of_host i = shard_of_pod (i / per_pod) in
  Topology.of_shape ~cluster ~shard_of_host s
