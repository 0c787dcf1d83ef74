(* Detailed ECN-echo accounting: every CE mark placed by the switch must be
   echoed back to the sender exactly once (XMP's counted echo), even with
   the 2-bit cap and delayed ACKs. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Cc = Xmp_transport.Cc
module Testbed = Xmp_net.Testbed

let make_rig ~k =
  let sim = Sim.create ~config:{ Sim.default_config with seed = 17 } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark k)
      ~capacity_pkts:100
  in
  let tb =
    Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.mbps 200.; delay = Time.us 50; disc } ]
      ~access_delay:(Time.us 10) ()
  in
  (sim, net, tb)

(* wrap a controller to observe the echoes it receives *)
type counting = { inner : Cc.t; on_echo : int -> unit }

let counting_ops =
  {
    Cc.name = "counting";
    view = (fun c -> Cc.view_of c.inner);
    window = (fun c -> Cc.window c.inner);
    on_ack =
      (fun c ~ack ~newly_acked ~ce_count ->
        Cc.on_ack c.inner ~ack ~newly_acked ~ce_count);
    on_ecn =
      (fun c ~count ->
        c.on_echo count;
        Cc.on_ecn c.inner ~count);
    on_fast_retransmit = (fun c -> Cc.on_fast_retransmit c.inner);
    on_timeout = (fun c -> Cc.on_timeout c.inner);
    in_slow_start = (fun c -> Cc.in_slow_start c.inner);
    take_cwr = (fun c -> Cc.take_cwr c.inner);
  }

let counting_cc inner_factory echoed view =
  Cc.Cc
    ( counting_ops,
      {
        inner = inner_factory view;
        on_echo = (fun count -> echoed := !echoed + count);
      } )

let run_echo_experiment ~echo =
  let sim, net, tb = make_rig ~k:5 in
  let echoed = ref 0 in
  let config = { Xmp_core.Xmp.tcp_config with Tcp.echo } in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(counting_cc (Xmp_core.Bos.make ()) echoed)
      ~config
      ~source:(Tcp.Limited (ref 2000))
      ()
  in
  Sim.run ~until:(Time.sec 5.) sim;
  Alcotest.(check bool) "transfer completed" true (Tcp.is_complete conn);
  let marked =
    Net.Queue_disc.marked (Net.Link.disc (Bottleneck.fwd net 0))
  in
  (marked, !echoed)

let test_counted_echo_conserves_marks () =
  let marked, echoed = run_echo_experiment ~echo:(Tcp.Counted (Some 3)) in
  Alcotest.(check bool) "marks were generated" true (marked > 20);
  (* every mark echoed exactly once: the flow completed, so no echoes are
     stranded in flight *)
  Alcotest.(check int) "echoed = marked" marked echoed

let test_uncapped_echo_conserves_marks () =
  let marked, echoed = run_echo_experiment ~echo:(Tcp.Counted None) in
  Alcotest.(check int) "echoed = marked (DCTCP mode)" marked echoed

let test_cap_three_per_ack () =
  (* direct receiver-side check: pile up CE marks, verify each ACK carries
     at most 3 and the leftovers follow on later ACKs *)
  let sim, net, tb = make_rig ~k:0 in
  (* k = 0: every queued ECT packet is marked, so bursts accumulate many
     pending CEs at the receiver while ACKs drain them 3 at a time *)
  let echoed = ref 0 in
  let max_seen = ref 0 in
  let counting view =
    Cc.Cc
      ( counting_ops,
        {
          inner = Xmp_core.Bos.make () view;
          on_echo =
            (fun count ->
              if count > !max_seen then max_seen := count;
              echoed := !echoed + count);
        } )
  in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0 ~cc:counting ~config:Xmp_core.Xmp.tcp_config
      ~source:(Tcp.Limited (ref 500))
      ()
  in
  Sim.run ~until:(Time.sec 5.) sim;
  Alcotest.(check bool) "completed" true (Tcp.is_complete conn);
  Alcotest.(check bool) "echoes happened" true (!echoed > 0);
  Alcotest.(check bool) "never more than 3 per ack" true (!max_seen <= 3);
  let marked =
    Net.Queue_disc.marked (Net.Link.disc (Bottleneck.fwd net 0))
  in
  Alcotest.(check int) "leftovers eventually delivered" marked !echoed

let test_delack_timer_single_segment () =
  (* a lone segment must still be acknowledged (via the delayed-ACK
     timer), without a second segment to trigger the every-2 rule *)
  let sim, net, tb = make_rig ~k:10 in
  let completed_at = ref None in
  ignore
    (Tcp.create ~net ~flow:1 ~subflow:0
       ~src:(Testbed.left_id tb 0)
       ~dst:(Testbed.right_id tb 0)
       ~path:0
       ~cc:(fun v -> Xmp_transport.Reno.make v)
       ~source:(Tcp.Limited (ref 1))
       ~on_complete:(fun () -> completed_at := Some (Sim.now sim))
       ());
  Sim.run ~until:(Time.ms 50) sim;
  match !completed_at with
  | None -> Alcotest.fail "single segment never acknowledged"
  | Some t ->
    (* RTT floor ~140 us + 200 us delack timer; well under 1 ms *)
    Alcotest.(check bool) "delack timer bounded the wait" true
      (t > Time.us 300 && t < Time.ms 1)

let test_odd_window_progresses () =
  (* cwnd alternating odd values must not deadlock on delayed ACKs *)
  let sim, net, tb = make_rig ~k:10 in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(fun v -> Xmp_transport.Reno.make v)
      ~source:(Tcp.Limited (ref 7))
      ()
  in
  Sim.run ~until:(Time.ms 100) sim;
  Alcotest.(check bool) "odd-sized flow completes" true
    (Tcp.is_complete conn)

let suite =
  [
    Alcotest.test_case "counted echo conserves marks" `Quick
      test_counted_echo_conserves_marks;
    Alcotest.test_case "uncapped echo conserves marks" `Quick
      test_uncapped_echo_conserves_marks;
    Alcotest.test_case "cap of 3 echoes per ack" `Quick
      test_cap_three_per_ack;
    Alcotest.test_case "delack timer, single segment" `Quick
      test_delack_timer_single_segment;
    Alcotest.test_case "odd windows progress" `Quick
      test_odd_window_progresses;
  ]
