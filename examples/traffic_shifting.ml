(* Traffic shifting (the paper's headline behaviour, §2.2 / Figure 4).

   An XMP flow with two subflows shares two 300 Mbps paths with two
   single-path flows. Mid-run, a burst of background traffic loads path A;
   TraSh should shrink the subflow on A (its δ falls below 1) and grow the
   subflow on B to compensate, then shift back once the burst ends. The
   program prints the live subflow rates and δ-style shares every 100 ms.

   Run with: dune exec examples/traffic_shifting.exe *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Flow = Xmp_mptcp.Mptcp_flow

let bottleneck = Net.Units.mbps 300.

let xmp_flow ~net ~flow ~src ~dst ~paths =
  Xmp_core.Xmp.flow ~net ~flow ~src ~dst ~paths ()

let () =
  let config = { Sim.default_config with seed = 3 } in
  let cluster = Net.Shard.create ~config ~shards:1 () in
  let sim = Net.Shard.sim cluster 0 and net = Net.Shard.net cluster 0 in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 15)
      ~capacity_pkts:100
  in
  let spec = { Net.Testbed.rate = bottleneck; delay = Time.us 600; disc } in
  let tb =
    Net.Testbed.create ~net ~n_left:4 ~n_right:4 ~bottlenecks:[ spec; spec ]
      ~access_delay:(Time.us 150) ()
  in
  let host i = (Net.Testbed.left_id tb i, Net.Testbed.right_id tb i) in
  let s1, d1 = host 0 and s2, d2 = host 1 and s3, d3 = host 2 in
  ignore (xmp_flow ~net ~flow:1 ~src:s1 ~dst:d1 ~paths:[ 0 ]);
  let multi = xmp_flow ~net ~flow:2 ~src:s2 ~dst:d2 ~paths:[ 0; 1 ] in
  ignore (xmp_flow ~net ~flow:3 ~src:s3 ~dst:d3 ~paths:[ 1 ]);
  (* background burst on path 0 during [1.0 s, 2.0 s) *)
  Sim.at sim (Time.sec 1.0) (fun () ->
      print_endline ">>> background flow joins path 0";
      let s4, d4 = host 3 in
      let bg = xmp_flow ~net ~flow:4 ~src:s4 ~dst:d4 ~paths:[ 0 ] in
      Sim.at sim (Time.sec 2.0) (fun () ->
          print_endline ">>> background flow leaves path 0";
          Flow.stop bg));
  (* periodic reporter *)
  let last = Array.make 2 0 in
  let report () =
    let subflows = Flow.subflows multi in
    let rate i =
      let acked = Tcp.segments_acked subflows.(i) in
      let d = acked - last.(i) in
      last.(i) <- acked;
      float_of_int (d * Net.Packet.payload_bytes * 8) /. 0.1 /. 1e6
    in
    let r0 = rate 0 in
    let r1 = rate 1 in
    Printf.printf
      "t=%.1fs  subflow A: %6.1f Mbps (cwnd %5.1f)   subflow B: %6.1f Mbps \
       (cwnd %5.1f)\n"
      (Time.to_float_s (Sim.now sim))
      r0
      (Tcp.cwnd subflows.(0))
      r1
      (Tcp.cwnd subflows.(1))
  in
  Xmp_engine.Periodic.start sim ~interval:(Time.ms 100) report;
  Net.Shard.run ~until:(Time.sec 3.0) cluster;
  print_endline
    "Expected shape: subflow A's rate collapses while the background flow \
     is present (traffic shifts to B), then recovers — the Congestion \
     Equality Principle at work."
