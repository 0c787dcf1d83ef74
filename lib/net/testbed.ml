module Time = Xmp_engine.Time

type spec = {
  rate : Units.rate;
  delay : Time.t;
  disc : unit -> Queue_disc.t;
}

type t = { left_base : int; n_left : int; right_base : int; n_right : int }

let access_rate = Units.gbps 10.

let create ~net ~n_left ~n_right ~bottlenecks ?(access_delay = Time.us 5) () =
  if n_left <= 0 || n_right <= 0 then invalid_arg "Testbed.create: hosts";
  if bottlenecks = [] then invalid_arg "Testbed.create: bottlenecks";
  let m = List.length bottlenecks in
  let left =
    Array.init n_left (fun i ->
        Network.add_host net ~name:(Printf.sprintf "S%d" (i + 1)))
  in
  let right =
    Array.init n_right (fun i ->
        Network.add_host net ~name:(Printf.sprintf "D%d" (i + 1)))
  in
  let in_sw =
    Array.init m (fun j ->
        Network.add_switch net ~name:(Printf.sprintf "IN%d" (j + 1)))
  in
  let out_sw =
    Array.init m (fun j ->
        Network.add_switch net ~name:(Printf.sprintf "OUT%d" (j + 1)))
  in
  let access_disc () =
    Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:1000
  in
  (* Access wiring. Loop order matters for port numbering: host [i] gets
     its port to IN/OUT_j at index [j]; switch [j] gets its port to host
     [i] at index [i]. *)
  for j = 0 to m - 1 do
    for i = 0 to n_left - 1 do
      ignore
        (Network.connect net ~tag:"access" ~rate:access_rate
           ~delay:access_delay ~disc:access_disc left.(i) in_sw.(j))
    done;
    for i = 0 to n_right - 1 do
      ignore
        (Network.connect net ~tag:"access" ~rate:access_rate
           ~delay:access_delay ~disc:access_disc right.(i) out_sw.(j))
    done
  done;
  List.iteri
    (fun j spec ->
      ignore
        (Network.connect net ~tag:"bottleneck" ~rate:spec.rate
           ~delay:spec.delay ~disc:spec.disc in_sw.(j) out_sw.(j)))
    bottlenecks;
  let left_base = Node.id left.(0) in
  let right_base = Node.id right.(0) in
  let is_left id = id >= left_base && id < left_base + n_left in
  let is_right id = id >= right_base && id < right_base + n_right in
  (* Hosts: the access port toward bottleneck [path] is port [path]. *)
  Array.iter (fun h -> Node.set_route h (fun p -> Packet.path p)) left;
  Array.iter (fun h -> Node.set_route h (fun p -> Packet.path p)) right;
  (* IN_j: packets for left hosts came back over the bottleneck and go down
     the matching access port; everything else crosses the bottleneck
     (port [n_left]). *)
  Array.iter
    (fun sw ->
      Node.set_route sw (fun p ->
          if is_left (Packet.dst p) then Packet.dst p - left_base else n_left))
    in_sw;
  Array.iter
    (fun sw ->
      Node.set_route sw (fun p ->
          if is_right (Packet.dst p) then Packet.dst p - right_base
          else n_right))
    out_sw;
  { left_base; n_left; right_base; n_right }

let left_id t i =
  if i < 0 || i >= t.n_left then invalid_arg "Testbed.left_id";
  t.left_base + i

let right_id t i =
  if i < 0 || i >= t.n_right then invalid_arg "Testbed.right_id";
  t.right_base + i
