module FN = Xmp_core.Fluid_network
module Units = Xmp_net.Units

let gbps1 = FN.link ~rate:(Units.gbps 1.) ~k:10 ()

let test_link_conversion () =
  Alcotest.(check (float 1.)) "1 Gbps in segments/s"
    (1e9 /. 8. /. 1500.)
    gbps1.FN.capacity;
  Alcotest.(check (float 1e-9)) "threshold" 10. gbps1.FN.k_threshold

let test_validation () =
  Alcotest.check_raises "bad link" (Invalid_argument "Fluid_network.link")
    (fun () -> ignore (FN.link ~rate:0 ~k:10 ()));
  Alcotest.check_raises "bad beta"
    (Invalid_argument "Fluid_network.create: beta") (fun () ->
      ignore
        (FN.create ~beta:1 ~links:[ gbps1 ]
           ~subflows:[ { FN.flow = 0; links = [ 0 ]; base_rtt = 1e-4 } ]));
  Alcotest.check_raises "bad index" (Invalid_argument "Fluid_network: link index")
    (fun () ->
      ignore
        (FN.create ~beta:4 ~links:[ gbps1 ]
           ~subflows:[ { FN.flow = 0; links = [ 3 ]; base_rtt = 1e-4 } ]))

let settle ?(steps = 400_000) t =
  FN.run t ~dt:1e-6 ~steps;
  t

let test_single_flow_equilibrium () =
  let t =
    settle
      (FN.create ~beta:4 ~links:[ gbps1 ]
         ~subflows:[ { FN.flow = 0; links = [ 0 ]; base_rtt = 225e-6 } ])
  in
  (* at equilibrium the flow saturates the link and the queue sits near K *)
  let util = FN.rate t 0 /. gbps1.FN.capacity in
  Alcotest.(check bool)
    (Printf.sprintf "utilization ~1 (%.3f)" util)
    true
    (util > 0.95 && util < 1.05);
  let q = FN.queue t 0 in
  Alcotest.(check bool)
    (Printf.sprintf "queue near K (%.1f)" q)
    true
    (q > 4. && q < 25.);
  Alcotest.(check (float 1e-6)) "single subflow delta = 1" 1. (FN.delta t 0)

let test_two_flows_fair () =
  let sub f = { FN.flow = f; links = [ 0 ]; base_rtt = 225e-6 } in
  let t =
    settle (FN.create ~beta:4 ~links:[ gbps1 ] ~subflows:[ sub 0; sub 1 ])
  in
  let r0 = FN.rate t 0 and r1 = FN.rate t 1 in
  Alcotest.(check bool) "equal split" true
    (Float.abs (r0 -. r1) /. r0 < 0.01);
  Alcotest.(check bool) "link full" true
    ((r0 +. r1) /. gbps1.FN.capacity > 0.95)

let test_multipath_prefers_empty_path () =
  (* flow 0 has subflows on links A and B; flow 1 is single-path on A:
     TraSh should push flow 0 mostly onto B and flow totals equalize
     around 0.75/0.75 of a link + leftovers *)
  let links = [ gbps1; gbps1 ] in
  let t =
    settle
      (FN.create ~beta:4 ~links
         ~subflows:
           [
             { FN.flow = 0; links = [ 0 ]; base_rtt = 225e-6 };
             { FN.flow = 0; links = [ 1 ]; base_rtt = 225e-6 };
             { FN.flow = 1; links = [ 0 ]; base_rtt = 225e-6 };
           ])
  in
  let on_shared = FN.rate t 0 and on_empty = FN.rate t 1 in
  Alcotest.(check bool)
    (Printf.sprintf "shifted to the empty path (%.0f vs %.0f)" on_empty
       on_shared)
    true
    (on_empty > 2. *. on_shared);
  (* both links are fully used *)
  Alcotest.(check bool) "link A full" true
    (FN.total_arrival t 0 /. gbps1.FN.capacity > 0.9);
  Alcotest.(check bool) "link B full" true
    (FN.total_arrival t 1 /. gbps1.FN.capacity > 0.9)

let test_matches_packet_simulator () =
  (* the fluid equilibrium window should predict the packet-level BOS
     average window on one bottleneck within a couple of segments *)
  let t =
    settle
      (FN.create ~beta:4 ~links:[ gbps1 ]
         ~subflows:[ { FN.flow = 0; links = [ 0 ]; base_rtt = 225e-6 } ])
  in
  let fluid_w = FN.window t 0 in
  (* packet level *)
  let sim = Xmp_engine.Sim.create ~config:{ Xmp_engine.Sim.default_config with seed = 5 } () in
  let net = Xmp_net.Network.create sim in
  let disc () =
    Xmp_net.Queue_disc.create ~policy:(Xmp_net.Queue_disc.Threshold_mark 10)
      ~capacity_pkts:100
  in
  let tb =
    Xmp_net.Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [
          {
            Xmp_net.Testbed.rate = Units.gbps 1.;
            delay = Xmp_engine.Time.ns 62_500;
            disc;
          };
        ]
      ~access_delay:(Xmp_engine.Time.us 25) ()
  in
  let conn =
    Xmp_transport.Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Xmp_net.Testbed.left_id tb 0)
      ~dst:(Xmp_net.Testbed.right_id tb 0)
      ~path:0
      ~cc:(Xmp_core.Bos.make ())
      ~config:Xmp_core.Xmp.tcp_config ()
  in
  (* average the packet-level window over the steady phase *)
  let samples = Xmp_stats.Running.create () in
  Xmp_engine.Periodic.start sim ~first_after:(Xmp_engine.Time.ms 50)
    ~interval:(Xmp_engine.Time.us 500) (fun () ->
      Xmp_stats.Running.add samples (Xmp_transport.Tcp.cwnd conn));
  Xmp_engine.Sim.run ~until:(Xmp_engine.Time.ms 200) sim;
  let packet_w = Xmp_stats.Running.mean samples in
  Alcotest.(check bool)
    (Printf.sprintf "fluid %.1f vs packet %.1f segments" fluid_w packet_w)
    true
    (Float.abs (fluid_w -. packet_w) < 8.)

let suite =
  [
    Alcotest.test_case "link conversion" `Quick test_link_conversion;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "single-flow equilibrium" `Quick
      test_single_flow_equilibrium;
    Alcotest.test_case "two flows split fairly" `Quick test_two_flows_fair;
    Alcotest.test_case "multipath prefers empty path" `Quick
      test_multipath_prefers_empty_path;
    Alcotest.test_case "fluid matches packet level" `Quick
      test_matches_packet_simulator;
  ]
