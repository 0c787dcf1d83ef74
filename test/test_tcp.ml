(* Integration tests of the TCP machinery over a one-bottleneck testbed. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Reno = Xmp_transport.Reno
module Queue_disc = Xmp_net.Queue_disc
module Testbed = Xmp_net.Testbed

type rig = {
  sim : Sim.t;
  net : Net.Network.t;
  tb : Testbed.t;
}

(* 100 Mbps bottleneck, ~140 us zero-load RTT *)
let make_rig ?(rate = Net.Units.mbps 100.) ?(capacity = 100)
    ?(policy = Queue_disc.Droptail) () =
  let sim = Sim.create ~config:{ Sim.default_config with seed = 5 } () in
  let net = Net.Network.create sim in
  let disc () = Queue_disc.create ~policy ~capacity_pkts:capacity in
  let tb =
    Testbed.create ~net ~n_left:2 ~n_right:2
      ~bottlenecks:[ { Testbed.rate; delay = Time.us 50; disc } ]
      ~access_delay:(Time.us 10) ()
  in
  { sim; net; tb }

let reno_factory view = Reno.make view

let make_conn ?(flow = 1) ?config ?source ?on_complete ?on_rtt_sample
    ?(host = 0) rig =
  Tcp.create ~net:rig.net ~flow ~subflow:0
    ~src:(Testbed.left_id rig.tb host)
    ~dst:(Testbed.right_id rig.tb host)
    ~path:0 ~cc:reno_factory ?config ?source ?on_complete ?on_rtt_sample ()

let test_limited_transfer_completes () =
  let rig = make_rig () in
  let done_at = ref None in
  let conn =
    make_conn rig
      ~source:(Tcp.Limited (ref 100))
      ~on_complete:(fun () -> done_at := Some (Sim.now rig.sim))
  in
  Sim.run ~until:(Time.sec 1.) rig.sim;
  Alcotest.(check bool) "completed" true (Tcp.is_complete conn);
  Alcotest.(check bool) "callback fired" true (!done_at <> None);
  Alcotest.(check int) "all segments acked" 100 (Tcp.segments_acked conn);
  Alcotest.(check int) "sent exactly the flow" 100 (Tcp.snd_max conn);
  Alcotest.(check int) "no retransmissions" 0 (Tcp.retransmits conn);
  (* 100 segments at 100 Mbps = 12 ms of serialization at least *)
  match !done_at with
  | Some t -> Alcotest.(check bool) "took at least 12 ms" true (t >= Time.ms 12)
  | None -> ()

let test_zero_size_completes_immediately () =
  let rig = make_rig () in
  let fired = ref 0 in
  let conn =
    make_conn rig
      ~source:(Tcp.Limited (ref 0))
      ~on_complete:(fun () -> incr fired)
  in
  Alcotest.(check bool) "complete synchronously" true (Tcp.is_complete conn);
  Alcotest.(check int) "callback once" 1 !fired

let test_negative_source_rejected () =
  let rig = make_rig () in
  Alcotest.check_raises "negative count"
    (Invalid_argument "Tcp.create: negative source") (fun () ->
      ignore (make_conn rig ~source:(Tcp.Limited (ref (-1)))))

let test_infinite_flow_fills_link () =
  let rig = make_rig () in
  let conn = make_conn rig in
  Sim.run ~until:(Time.ms 500) rig.sim;
  let goodput =
    float_of_int (Tcp.segments_acked conn * Net.Packet.payload_bytes * 8)
    /. 0.5
  in
  Alcotest.(check bool) "goodput above 90 Mbps" true (goodput > 90e6);
  Alcotest.(check bool) "not complete" false (Tcp.is_complete conn)

let test_rtt_sampling () =
  let rig = make_rig () in
  let samples = ref [] in
  ignore
    (make_conn rig
       ~source:(Tcp.Limited (ref 50))
       ~on_rtt_sample:(fun rtt -> samples := rtt :: !samples));
  Sim.run ~until:(Time.ms 200) rig.sim;
  Alcotest.(check bool) "has samples" true (!samples <> []);
  (* zero-load RTT: 2 * (2*10 + 50) us prop + serialization; every sample
     must exceed it and stay well under 10 ms on an uncongested link *)
  List.iter
    (fun rtt ->
      Alcotest.(check bool) "above propagation floor" true (rtt >= Time.us 140);
      Alcotest.(check bool) "below 20 ms" true (rtt <= Time.ms 20))
    !samples

let test_delayed_acks () =
  let rig = make_rig () in
  let conn = make_conn rig ~source:(Tcp.Limited (ref 100)) in
  Sim.run ~until:(Time.sec 1.) rig.sim;
  ignore conn;
  (* the reverse bottleneck carried the ACKs: delayed acking means roughly
     one ACK per two data segments (plus timer-driven odd ones) *)
  let acks = Net.Link.packets_sent (Bottleneck.rev rig.net 0) in
  Alcotest.(check bool) "acks about half of data" true
    (acks >= 50 && acks <= 70)

let test_loss_recovery_fast_retransmit () =
  (* a 6-packet buffer at 100 Mbps forces slow-start overshoot drops *)
  let rig = make_rig ~capacity:6 () in
  let conn = make_conn rig ~source:(Tcp.Limited (ref 400)) in
  Sim.run ~until:(Time.sec 5.) rig.sim;
  Alcotest.(check bool) "completed despite drops" true (Tcp.is_complete conn);
  Alcotest.(check int) "acked everything" 400 (Tcp.segments_acked conn);
  Alcotest.(check bool) "losses actually happened" true
    (Queue_disc.dropped (Net.Link.disc (Bottleneck.fwd rig.net 0)) > 0);
  Alcotest.(check bool) "fast retransmit used" true
    (Tcp.fast_retransmits conn > 0)

let test_rto_after_blackout () =
  let rig = make_rig () in
  let conn = make_conn rig ~source:(Tcp.Limited (ref 200)) in
  (* the bottleneck dies shortly after start and comes back 500 ms later *)
  Sim.at rig.sim (Time.ms 1) (fun () ->
      Bottleneck.set_up rig.net 0 false);
  Sim.at rig.sim (Time.ms 501) (fun () ->
      Bottleneck.set_up rig.net 0 true);
  Sim.run ~until:(Time.sec 5.) rig.sim;
  Alcotest.(check bool) "completed after blackout" true
    (Tcp.is_complete conn);
  Alcotest.(check bool) "timeouts fired" true (Tcp.timeouts conn > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (Tcp.retransmits conn > 0)

let test_go_back_n_invariants () =
  let rig = make_rig ~capacity:5 () in
  let conn = make_conn rig ~source:(Tcp.Limited (ref 300)) in
  (* sample invariants along the way *)
  let rec probe () =
    Alcotest.(check bool) "una <= nxt" true (Tcp.segments_acked conn <= Tcp.snd_nxt conn);
    Alcotest.(check bool) "nxt <= max" true (Tcp.snd_nxt conn <= Tcp.snd_max conn);
    Alcotest.(check bool) "outstanding >= 0" true
      (Tcp.snd_max conn - Tcp.segments_acked conn >= 0);
    if not (Tcp.is_complete conn) then
      Sim.after rig.sim (Time.ms 5) probe
  in
  probe ();
  Sim.run ~until:(Time.sec 5.) rig.sim;
  Alcotest.(check bool) "completed" true (Tcp.is_complete conn);
  Alcotest.(check int) "acked = size" 300 (Tcp.segments_acked conn)

let test_ecn_echo_counted () =
  (* XMP-style counted echo over a marking bottleneck: the sender's BOS
     controller sees the marks and keeps the queue near K *)
  let rig = make_rig ~policy:(Queue_disc.Threshold_mark 5) () in
  let conn =
    Tcp.create ~net:rig.net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id rig.tb 0)
      ~dst:(Testbed.right_id rig.tb 0)
      ~path:0
      ~cc:(Xmp_core.Bos.make ())
      ~config:Xmp_core.Xmp.tcp_config ()
  in
  Sim.run ~until:(Time.ms 500) rig.sim;
  let disc = Net.Link.disc (Bottleneck.fwd rig.net 0) in
  Alcotest.(check bool) "marks generated" true (Queue_disc.marked disc > 0);
  Alcotest.(check int) "no drops with ECN" 0 (Queue_disc.dropped disc);
  Alcotest.(check bool) "queue bounded near K" true
    (Queue_disc.max_length_seen disc < 30);
  Alcotest.(check bool) "window bounded" true (Tcp.cwnd conn < 40.)

let test_ecn_classic_mode () =
  let rig = make_rig ~policy:(Queue_disc.Threshold_mark 5) () in
  let config =
    { Tcp.default_config with ect = true; echo = Tcp.Classic }
  in
  let params = { Reno.default_params with ecn = true } in
  let conn =
    Tcp.create ~net:rig.net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id rig.tb 0)
      ~dst:(Testbed.right_id rig.tb 0)
      ~path:0
      ~cc:(fun view -> Reno.make ~params view)
      ~config ()
  in
  Sim.run ~until:(Time.ms 500) rig.sim;
  let disc = Net.Link.disc (Bottleneck.fwd rig.net 0) in
  Alcotest.(check bool) "marks generated" true (Queue_disc.marked disc > 0);
  Alcotest.(check int) "classic ECN avoids drops" 0
    (Queue_disc.dropped disc);
  (* halving on each congestion round keeps the window well below the
     no-ECN equilibrium *)
  Alcotest.(check bool) "window reduced by ECE" true (Tcp.cwnd conn < 60.)

let test_stop_tears_down () =
  let rig = make_rig () in
  let conn = make_conn rig in
  Sim.run ~until:(Time.ms 10) rig.sim;
  Tcp.stop conn;
  Sim.run ~until:(Time.ms 30) rig.sim;
  (* both halves left the endpoint table, so in-flight packets arriving
     after teardown are dead-lettered *)
  Alcotest.(check int) "no more deliveries" 0
    (Net.Network.endpoint_stats rig.net).Hashtbl.num_bindings;
  Alcotest.(check bool) "dead letters counted" true
    (Net.Network.packets_dead_lettered rig.net > 0);
  (* stop is idempotent *)
  Tcp.stop conn

let test_two_flows_share_fairly () =
  let rig = make_rig () in
  let c0 = make_conn rig ~flow:1 ~host:0 in
  let c1 = make_conn rig ~flow:2 ~host:1 in
  Sim.run ~until:(Time.sec 1.) rig.sim;
  let r0 = float_of_int (Tcp.segments_acked c0) in
  let r1 = float_of_int (Tcp.segments_acked c1) in
  let jain = Xmp_stats.Fairness.jain [ r0; r1 ] in
  Alcotest.(check bool) "reno flows share the link" true (jain > 0.95);
  Alcotest.(check bool) "link is full" true
    (r0 +. r1 > 0.9 *. 100e6 /. 8. /. 1460.)

let test_cc_name_and_metadata () =
  let rig = make_rig () in
  let conn = make_conn rig ~flow:7 in
  Alcotest.(check string) "cc name" "reno" (Tcp.cc_name conn);
  Alcotest.(check int) "subflow" 0 (Tcp.subflow conn)

let suite =
  [
    Alcotest.test_case "limited transfer completes" `Quick
      test_limited_transfer_completes;
    Alcotest.test_case "zero size completes" `Quick
      test_zero_size_completes_immediately;
    Alcotest.test_case "infinite flow fills link" `Quick
      test_infinite_flow_fills_link;
    Alcotest.test_case "rtt sampling" `Quick test_rtt_sampling;
    Alcotest.test_case "delayed acks" `Quick test_delayed_acks;
    Alcotest.test_case "fast retransmit recovery" `Quick
      test_loss_recovery_fast_retransmit;
    Alcotest.test_case "RTO after blackout" `Quick test_rto_after_blackout;
    Alcotest.test_case "go-back-N invariants" `Quick
      test_go_back_n_invariants;
    Alcotest.test_case "ECN counted echo (XMP)" `Quick test_ecn_echo_counted;
    Alcotest.test_case "ECN classic echo" `Quick test_ecn_classic_mode;
    Alcotest.test_case "stop tears down" `Quick test_stop_tears_down;
    Alcotest.test_case "two flows share fairly" `Quick
      test_two_flows_share_fairly;
    Alcotest.test_case "metadata accessors" `Quick test_cc_name_and_metadata;
    Alcotest.test_case "negative source rejected" `Quick
      test_negative_source_rejected;
  ]
