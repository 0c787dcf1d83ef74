(* Edge cases of the transport machinery beyond the main suite. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Reno = Xmp_transport.Reno
module Testbed = Xmp_net.Testbed

let make_rig ?(rate = Net.Units.mbps 100.) ?(capacity = 100)
    ?(policy = Net.Queue_disc.Droptail) () =
  let sim = Sim.create ~config:{ Sim.default_config with seed = 41 } () in
  let net = Net.Network.create sim in
  let disc () = Net.Queue_disc.create ~policy ~capacity_pkts:capacity in
  let tb =
    Testbed.create ~net ~n_left:2 ~n_right:2
      ~bottlenecks:[ { Testbed.rate; delay = Time.us 50; disc } ]
      ~access_delay:(Time.us 10) ()
  in
  (sim, net, tb)

let test_shared_source_two_connections () =
  (* two independent connections drain one shared counter without losing
     or duplicating segments *)
  let sim, net, tb = make_rig () in
  let counter = ref 500 in
  let total_acked = ref 0 in
  let completions = ref 0 in
  let mk host =
    Tcp.create ~net ~flow:host ~subflow:0
      ~src:(Testbed.left_id tb host)
      ~dst:(Testbed.right_id tb host)
      ~path:0
      ~cc:(fun v -> Reno.make v)
      ~source:(Tcp.Limited counter)
      ~on_segment_acked:(fun n -> total_acked := !total_acked + n)
      ~on_complete:(fun () -> incr completions)
      ()
  in
  let c0 = mk 0 in
  let c1 = mk 1 in
  Sim.run ~until:(Time.sec 2.) sim;
  Alcotest.(check int) "counter drained" 0 !counter;
  Alcotest.(check int) "every segment acked exactly once" 500 !total_acked;
  Alcotest.(check int) "both connections complete" 2 !completions;
  Alcotest.(check int) "split covers the whole source" 500
    (Tcp.segments_acked c0 + Tcp.segments_acked c1);
  Alcotest.(check bool) "both carried data" true
    (Tcp.segments_acked c0 > 0 && Tcp.segments_acked c1 > 0)

let test_rto_backoff_doubles () =
  (* blackhole the path from the start: no RTT samples exist, so the
     conservative initial RTO (srtt 200 ms + 4 x 100 ms var = 600 ms)
     applies, then doubles: timeouts at 0.6, 1.8, 4.2, ... s *)
  let sim, net, tb = make_rig () in
  Bottleneck.set_up net 0 false;
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(fun v -> Reno.make v)
      ~source:(Tcp.Limited (ref 10))
      ()
  in
  Sim.run ~until:(Time.sec 2.) sim;
  Alcotest.(check int) "two timeouts by 2 s" 2 (Tcp.timeouts conn);
  Sim.run ~until:(Time.sec 4.5) sim;
  Alcotest.(check int) "third at ~4.2 s" 3 (Tcp.timeouts conn)

let test_dupack_threshold_config () =
  (* with a huge dupack threshold, fast retransmit never fires; recovery
     falls back to RTO *)
  let sim, net, tb = make_rig ~capacity:6 () in
  let config = { Tcp.default_config with dupack_threshold = 1_000_000 } in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(fun v -> Reno.make v)
      ~config
      ~source:(Tcp.Limited (ref 300))
      ()
  in
  Sim.run ~until:(Time.sec 10.) sim;
  Alcotest.(check bool) "completes via RTO alone" true (Tcp.is_complete conn);
  Alcotest.(check int) "no fast retransmits" 0 (Tcp.fast_retransmits conn);
  Alcotest.(check bool) "timeouts did the repair" true (Tcp.timeouts conn > 0)

let test_no_delack () =
  (* delack_segments = 1 means an immediate ACK per segment *)
  let sim, net, tb = make_rig () in
  let config = { Tcp.default_config with delack_segments = 1 } in
  ignore
    (Tcp.create ~net ~flow:1 ~subflow:0
       ~src:(Testbed.left_id tb 0)
       ~dst:(Testbed.right_id tb 0)
       ~path:0
       ~cc:(fun v -> Reno.make v)
       ~config
       ~source:(Tcp.Limited (ref 100))
       ());
  Sim.run ~until:(Time.sec 1.) sim;
  let acks = Net.Link.packets_sent (Bottleneck.rev net 0) in
  Alcotest.(check int) "one ack per segment" 100 acks

let test_tiny_rto_min () =
  (* a small RTOmin recovers from a blackout much faster (the Vasudevan
     fix the paper cites) *)
  let recover_time rto_min =
    let sim, net, tb = make_rig () in
    let config = { Tcp.default_config with rto_min } in
    let done_at = ref Time.infinity in
    ignore
      (Tcp.create ~net ~flow:1 ~subflow:0
         ~src:(Testbed.left_id tb 0)
         ~dst:(Testbed.right_id tb 0)
         ~path:0
         ~cc:(fun v -> Reno.make v)
         ~config
         ~source:(Tcp.Limited (ref 500))
         ~on_complete:(fun () -> done_at := Sim.now sim)
         ());
    (* let RTT samples arrive first (so RTOmin is what matters), then a
       10 ms blackout *)
    Sim.at sim (Time.ms 5) (fun () -> Bottleneck.set_up net 0 false);
    Sim.at sim (Time.ms 15) (fun () -> Bottleneck.set_up net 0 true);
    Sim.run ~until:(Time.sec 2.) sim;
    !done_at
  in
  let slow = recover_time (Time.ms 200) in
  let fast = recover_time (Time.ms 2) in
  Alcotest.(check bool) "both complete" true
    ((not (Time.is_infinite slow)) && not (Time.is_infinite fast));
  Alcotest.(check bool) "small RTOmin recovers sooner" true
    (fast < Time.div slow 2)

let test_segments_sent_vs_retransmits () =
  let sim, net, tb = make_rig ~capacity:6 () in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(fun v -> Reno.make v)
      ~source:(Tcp.Limited (ref 200))
      ()
  in
  Sim.run ~until:(Time.sec 5.) sim;
  Alcotest.(check int) "segments_sent counts distinct data" 200
    (Tcp.snd_max conn);
  Alcotest.(check bool) "retransmits counted separately" true
    (Tcp.retransmits conn > 0)

let suite =
  [
    Alcotest.test_case "shared source" `Quick
      test_shared_source_two_connections;
    Alcotest.test_case "rto backoff doubles" `Quick test_rto_backoff_doubles;
    Alcotest.test_case "dupack threshold config" `Quick
      test_dupack_threshold_config;
    Alcotest.test_case "no delayed acks" `Quick test_no_delack;
    Alcotest.test_case "tiny RTOmin" `Quick test_tiny_rto_min;
    Alcotest.test_case "sent vs retransmit accounting" `Quick
      test_segments_sent_vs_retransmits;
  ]
