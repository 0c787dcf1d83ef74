(* TraSh: the Equation 9 gain and packet-level traffic shifting. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Trash = Xmp_core.Trash
module Flow = Xmp_mptcp.Mptcp_flow
module Tcp = Xmp_transport.Tcp
module Testbed = Xmp_net.Testbed

let checkf = Alcotest.(check (float 1e-9))

let test_delta_single_path () =
  (* one subflow: total rate = own rate, min rtt = own rtt -> delta = 1 *)
  let rtt = 0.0002 and w = 25. in
  checkf "degenerates to 1" 1.
    (Trash.delta ~own_cwnd:w ~total_rate:(w /. rtt) ~min_rtt_s:rtt)

let test_delta_guards () =
  checkf "no rate yet" 1. (Trash.delta ~own_cwnd:10. ~total_rate:0. ~min_rtt_s:0.001);
  checkf "no rtt yet" 1.
    (Trash.delta ~own_cwnd:10. ~total_rate:100. ~min_rtt_s:Float.max_float)

let test_delta_shares () =
  (* two equal-RTT subflows: deltas are the window shares and sum to 1 *)
  let rtt = 0.001 in
  let w1 = 30. and w2 = 10. in
  let total_rate = (w1 +. w2) /. rtt in
  let d1 = Trash.delta ~own_cwnd:w1 ~total_rate ~min_rtt_s:rtt in
  let d2 = Trash.delta ~own_cwnd:w2 ~total_rate ~min_rtt_s:rtt in
  checkf "d1" 0.75 d1;
  checkf "d2" 0.25 d2;
  checkf "sum" 1. (d1 +. d2)

let prop_deltas_sum_to_one_equal_rtt =
  QCheck.Test.make ~count:200
    ~name:"equal-RTT deltas sum to 1 (Equation 9)"
    QCheck.(list_of_size (Gen.int_range 1 8) (float_range 1. 100.))
    (fun windows ->
      let rtt = 0.0005 in
      let total_rate =
        List.fold_left (fun acc w -> acc +. (w /. rtt)) 0. windows
      in
      let sum =
        List.fold_left
          (fun acc w ->
            acc +. Trash.delta ~own_cwnd:w ~total_rate ~min_rtt_s:rtt)
          0. windows
      in
      Float.abs (sum -. 1.) < 1e-9)

let prop_delta_monotone_in_cwnd =
  QCheck.Test.make ~count:200 ~name:"bigger window, bigger delta"
    QCheck.(pair (float_range 1. 50.) (float_range 1. 50.))
    (fun (w1, w2) ->
      let total_rate = 1e5 and rtt = 0.0003 in
      let d1 = Trash.delta ~own_cwnd:w1 ~total_rate ~min_rtt_s:rtt in
      let d2 = Trash.delta ~own_cwnd:w2 ~total_rate ~min_rtt_s:rtt in
      (w1 <= w2) = (d1 <= d2))

(* ----- packet level ----- *)

let make_two_path_rig () =
  let sim = Sim.create ~config:{ Sim.default_config with seed = 31 } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 10)
      ~capacity_pkts:100
  in
  let spec =
    { Testbed.rate = Net.Units.mbps 100.; delay = Time.us 50; disc }
  in
  let tb =
    Testbed.create ~net ~n_left:3 ~n_right:3 ~bottlenecks:[ spec; spec ]
      ~access_delay:(Time.us 10) ()
  in
  (sim, net, tb)

let test_shifting_away_from_congested_path () =
  let sim, net, tb = make_two_path_rig () in
  let multi =
    Flow.create ~net ~flow:1
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~paths:[ 0; 1 ]
      ~coupling:(Trash.coupling ())
      ~config:Xmp_core.Xmp.tcp_config ()
  in
  (* two single-path competitors pile onto path 0 *)
  List.iter
    (fun host ->
      ignore
        (Flow.create ~net ~flow:(host + 10)
           ~src:(Testbed.left_id tb host)
           ~dst:(Testbed.right_id tb host)
           ~paths:[ 0 ]
           ~coupling:(Trash.coupling ())
           ~config:Xmp_core.Xmp.tcp_config ()))
    [ 1; 2 ];
  Sim.run ~until:(Time.sec 1.5) sim;
  let acked i = float_of_int (Tcp.segments_acked (Flow.subflows multi).(i)) in
  (* the subflow on the empty path must end up carrying several times the
     congested subflow's bytes; with perfect equality of congestion the
     loaded path gives it well under a third *)
  Alcotest.(check bool) "traffic shifted to the free path" true
    (acked 1 > 2. *. acked 0);
  (* and the free path is fully used *)
  let pkts = Net.Link.packets_sent (Bottleneck.fwd net 1) in
  Alcotest.(check bool) "free path saturated" true
    (float_of_int pkts > 0.9 *. (100e6 *. 1.5 /. 8. /. 1500.))

let test_total_rate_fairness_on_shared_bottleneck () =
  (* two XMP subflows on the same bottleneck against one single-path XMP
     flow: coupling should give each flow about half *)
  let sim, net, tb = make_two_path_rig () in
  let multi =
    Flow.create ~net ~flow:1
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~paths:[ 0; 0 ]
      ~coupling:(Trash.coupling ())
      ~config:Xmp_core.Xmp.tcp_config ()
  in
  let single =
    Flow.create ~net ~flow:2
      ~src:(Testbed.left_id tb 1)
      ~dst:(Testbed.right_id tb 1)
      ~paths:[ 0 ]
      ~coupling:(Trash.coupling ())
      ~config:Xmp_core.Xmp.tcp_config ()
  in
  Sim.run ~until:(Time.sec 2.) sim;
  let rm = float_of_int (Flow.segments_acked multi) in
  let rs = float_of_int (Flow.segments_acked single) in
  Alcotest.(check bool) "flow-level fairness" true
    (Xmp_stats.Fairness.jain [ rm; rs ] > 0.93)

let test_xmp_beats_single_path_on_two_paths () =
  let sim, net, tb = make_two_path_rig () in
  let f =
    Flow.create ~net ~flow:1
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~paths:[ 0; 1 ]
      ~coupling:(Trash.coupling ())
      ~config:Xmp_core.Xmp.tcp_config ()
  in
  Sim.run ~until:(Time.sec 1.) sim;
  let goodput =
    float_of_int (Flow.segments_acked f * Net.Packet.payload_bytes * 8)
  in
  Alcotest.(check bool) "aggregate ~2x one path" true (goodput > 1.8 *. 100e6)

let suite =
  [
    Alcotest.test_case "delta single path" `Quick test_delta_single_path;
    Alcotest.test_case "delta guards" `Quick test_delta_guards;
    Alcotest.test_case "delta window shares" `Quick test_delta_shares;
    QCheck_alcotest.to_alcotest prop_deltas_sum_to_one_equal_rtt;
    QCheck_alcotest.to_alcotest prop_delta_monotone_in_cwnd;
    Alcotest.test_case "shifts off congested path" `Quick
      test_shifting_away_from_congested_path;
    Alcotest.test_case "flow fairness on shared link" `Quick
      test_total_rate_fairness_on_shared_bottleneck;
    Alcotest.test_case "two paths ~ double goodput" `Quick
      test_xmp_beats_single_path_on_two_paths;
  ]
