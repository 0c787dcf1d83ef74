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

let build cluster ~shard_of_pod ~k ~prefix ~host_base ~switch_base ~n_exits
    ~rate ~disc =
  let half = k / 2 in
  let n = k * half * half in
  let place add pod id name =
    let s = shard_of_pod pod in
    (s, add (Shard.net cluster s) ~id ~name:(prefix ^ name))
  in
  let hosts =
    Array.init n (fun i ->
        let pod, edge, slot = decompose ~k i in
        place Network.add_host_at pod (host_base + i)
          (Printf.sprintf "h%d.%d.%d" pod edge slot))
  in
  let grid rows base letter pod_of =
    Array.init rows (fun r ->
        Array.init half (fun c ->
            place Network.add_switch_at (pod_of r c)
              (base + (r * half) + c)
              (Printf.sprintf "%s%d.%d" letter r c)))
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
     n_exits]. *)
  let local dst = dst >= host_base && dst < host_base + n in
  let pod_of dst = (dst - host_base) / (half * half) in
  let edge_of dst = (dst - host_base) mod (half * half) / half in
  let slot_of dst = (dst - host_base) mod half in
  let route (_, node) f = Node.set_route node f in
  Array.iter (fun h -> route h (fun _ -> 0)) hosts;
  Array.iteri
    (fun pod row ->
      Array.iteri
        (fun e sw ->
          route sw (fun p ->
              let dst = Packet.dst p in
              if local dst && pod_of dst = pod && edge_of dst = e then
                slot_of dst
              else if local dst && pod_of dst = pod then
                half + (Packet.path p mod half)
              else half + (Packet.path p / half mod half)))
        row)
    edges;
  Array.iteri
    (fun pod row ->
      Array.iter
        (fun sw ->
          route sw (fun p ->
              let dst = Packet.dst p in
              if local dst && pod_of dst = pod then edge_of dst
              else half + (Packet.path p mod half)))
        row)
    aggs;
  Array.iter
    (Array.iter (fun sw ->
         route sw (fun p ->
             let dst = Packet.dst p in
             if local dst then pod_of dst
             else k + (Packet.path p / (half * half) mod n_exits))))
    cores;
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
