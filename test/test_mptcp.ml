module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Cc = Xmp_transport.Cc
module Coupling = Xmp_mptcp.Coupling
module Lia = Xmp_mptcp.Lia
module Olia = Xmp_mptcp.Olia
module Flow = Xmp_mptcp.Mptcp_flow
module Testbed = Xmp_net.Testbed

let checkf = Alcotest.(check (float 1e-6))

let make_rig ?(m = 2) ?(rate = Net.Units.mbps 100.) () =
  let sim = Sim.create ~config:{ Sim.default_config with seed = 9 } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 10)
      ~capacity_pkts:100
  in
  let spec = { Testbed.rate; delay = Time.us 50; disc } in
  let tb =
    Testbed.create ~net ~n_left:2 ~n_right:2
      ~bottlenecks:(List.init m (fun _ -> spec))
      ~access_delay:(Time.us 10) ()
  in
  (sim, net, tb)

(* ----- coupling registry ----- *)

let test_group_registry () =
  let g = Coupling.group () in
  Alcotest.(check int) "empty" 0 (List.length (Coupling.members g));
  (* a member with a fixed window and slow-start flag; its state is its
     view *)
  let member ~cwnd ~srtt ~slow_start =
    let window = { Cc.cwnd; ssthresh = Float.max_float } in
    let ops =
      {
        Cc.name = "fixed";
        view = Fun.id;
        window = (fun _ -> window);
        on_ack = (fun _ ~ack:_ ~newly_acked:_ ~ce_count:_ -> ());
        on_ecn = (fun _ ~count:_ -> ());
        on_fast_retransmit = ignore;
        on_timeout = ignore;
        in_slow_start = (fun _ -> slow_start);
        take_cwr = Cc.nop_take_cwr;
      }
    in
    Coupling.register g (Cc.Cc (ops, Cc.view ~srtt ~now:(fun () -> 0) ()))
  in
  member ~cwnd:10. ~srtt:(Time.ms 1) ~slow_start:false;
  member ~cwnd:30. ~srtt:(Time.ms 2) ~slow_start:true;
  Alcotest.(check int) "two members" 2 (List.length (Coupling.members g));
  checkf "total cwnd" 40. (Coupling.total_cwnd g);
  checkf "total rate" ((10. /. 0.001) +. (30. /. 0.002)) (Coupling.total_rate g);
  checkf "max rate" (30. /. 0.002) (Coupling.max_rate g);
  checkf "min srtt" 0.001 (Coupling.min_srtt g)

(* ----- LIA alpha ----- *)

let test_lia_alpha_single_path () =
  (* one path: alpha = total * (w/rtt^2) / (w/rtt)^2 = 1 per unit...
     alpha/total = 1/w, i.e. plain reno *)
  let w = 20. and rtt = 0.01 in
  let a = Lia.alpha ~windows_rtts:[ (w, rtt) ] in
  checkf "alpha = rtt^0 scaling" (w *. (w /. (rtt *. rtt)) /. ((w /. rtt) ** 2.)) a;
  checkf "increase equals 1/total" (1. /. w) (a /. w)

let test_lia_alpha_equal_paths () =
  (* n identical paths: increase per path = 1/(n^2 * w)... aggregate
     behaves like one flow *)
  let w = 10. and rtt = 0.001 in
  let a = Lia.alpha ~windows_rtts:[ (w, rtt); (w, rtt) ] in
  let total = 2. *. w in
  (* alpha = total * (w/rtt²) / (2w/rtt)² = total / (4w) = 1/2 *)
  checkf "alpha" 0.5 a;
  checkf "per-ack increase" (0.25 /. w) (a /. total)

let test_lia_alpha_degenerate () =
  checkf "empty" 0. (Lia.alpha ~windows_rtts:[]);
  checkf "zero rtt ignored" 0. (Lia.alpha ~windows_rtts:[ (10., 0.) ])

(* ----- flow mechanics ----- *)

let reno_uncoupled =
  Coupling.uncoupled ~name:"reno" (fun v -> Xmp_transport.Reno.make v)

let test_flow_completion () =
  let sim, net, tb = make_rig () in
  let completed = ref 0 in
  let f =
    Flow.create ~net ~flow:1
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~paths:[ 0; 1 ] ~coupling:(Lia.coupling ())
      ~size_segments:500
      ~observer:{ Flow.silent with on_complete = (fun _ -> incr completed) }
      ()
  in
  Sim.run ~until:(Time.sec 2.) sim;
  Alcotest.(check bool) "complete" true (Flow.is_complete f);
  Alcotest.(check int) "once" 1 !completed;
  Alcotest.(check int) "exactly the flow size" 500 (Flow.segments_acked f);
  Alcotest.(check int) "two subflows" 2 (Array.length (Flow.subflows f));
  (* both subflows carried data over distinct paths *)
  Alcotest.(check bool) "subflow 0 used" true
    (Tcp.segments_acked (Flow.subflows f).(0) > 0);
  Alcotest.(check bool) "subflow 1 used" true
    (Tcp.segments_acked (Flow.subflows f).(1) > 0);
  Alcotest.(check bool) "goodput positive" true (Flow.goodput_bps f > 0.)

let test_flow_uses_both_paths () =
  let sim, net, tb = make_rig () in
  ignore
    (Flow.create ~net ~flow:1
       ~src:(Testbed.left_id tb 0)
       ~dst:(Testbed.right_id tb 0)
       ~paths:[ 0; 1 ]
       ~coupling:(Xmp_core.Trash.coupling ())
       ~config:Xmp_core.Xmp.tcp_config ());
  Sim.run ~until:(Time.ms 500) sim;
  (* an MPTCP flow over two 100 Mbps paths should beat one path's rate *)
  let total_pkts =
    Net.Link.packets_sent (Bottleneck.fwd net 0)
    + Net.Link.packets_sent (Bottleneck.fwd net 1)
  in
  let single_path_cap = 100e6 *. 0.5 /. 8. /. 1500. in
  Alcotest.(check bool) "aggregates both paths" true
    (float_of_int total_pkts > 1.5 *. single_path_cap)

let test_add_subflow () =
  let sim, net, tb = make_rig () in
  let f =
    Flow.create ~net ~flow:1
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~paths:[ 0 ]
      ~coupling:(Xmp_core.Trash.coupling ())
      ~config:Xmp_core.Xmp.tcp_config ()
  in
  Sim.at sim (Time.ms 50) (fun () -> ignore (Flow.add_subflow f ~path:1));
  Sim.run ~until:(Time.ms 300) sim;
  Alcotest.(check int) "now two subflows" 2 (Array.length (Flow.subflows f));
  Alcotest.(check bool) "late subflow carries data" true
    (Tcp.segments_acked (Flow.subflows f).(1) > 0)

let test_goodput_until () =
  let sim, net, tb = make_rig () in
  let f =
    Flow.create ~net ~flow:1
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~paths:[ 0 ] ~coupling:reno_uncoupled ()
  in
  Sim.run ~until:(Time.ms 100) sim;
  let g = Flow.goodput_bps_until f (Time.ms 100) in
  Alcotest.(check bool) "bounded by path capacity" true (g <= 100e6);
  Alcotest.(check bool) "substantial" true (g > 50e6);
  Alcotest.(check bool) "unfinished goodput raises" true
    (try
       ignore (Flow.goodput_bps f);
       false
     with Invalid_argument _ -> true)

let test_stop_flow () =
  let sim, net, tb = make_rig () in
  let f =
    Flow.create ~net ~flow:1
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~paths:[ 0; 1 ] ~coupling:reno_uncoupled ()
  in
  Sim.run ~until:(Time.ms 50) sim;
  Flow.stop f;
  let acked = Flow.segments_acked f in
  Sim.run ~until:(Time.ms 150) sim;
  Alcotest.(check int) "no progress after stop" acked (Flow.segments_acked f)

let test_subflow_acked_callback () =
  let sim, net, tb = make_rig () in
  let per_subflow = Array.make 2 0 in
  ignore
    (Flow.create ~net ~flow:1
       ~src:(Testbed.left_id tb 0)
       ~dst:(Testbed.right_id tb 0)
       ~paths:[ 0; 1 ] ~coupling:reno_uncoupled
       ~observer:
         {
           Flow.silent with
           on_subflow_acked =
             (fun idx n -> per_subflow.(idx) <- per_subflow.(idx) + n);
         }
       ());
  Sim.run ~until:(Time.ms 200) sim;
  Alcotest.(check bool) "callbacks on both subflows" true
    (per_subflow.(0) > 0 && per_subflow.(1) > 0)

let test_validation () =
  let _, net, tb = make_rig () in
  Alcotest.check_raises "no paths"
    (Invalid_argument "Mptcp_flow.create: paths") (fun () ->
      ignore
        (Flow.create ~net ~flow:1
           ~src:(Testbed.left_id tb 0)
           ~dst:(Testbed.right_id tb 0)
           ~paths:[] ~coupling:reno_uncoupled ()))

(* ----- OLIA vs LIA smoke: both complete transfers and couple ----- *)

let test_olia_completes () =
  let sim, net, tb = make_rig () in
  let f =
    Flow.create ~net ~flow:1
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~paths:[ 0; 1 ] ~coupling:(Olia.coupling ()) ~size_segments:500 ()
  in
  Sim.run ~until:(Time.sec 2.) sim;
  Alcotest.(check bool) "olia transfer completes" true (Flow.is_complete f)

let test_coupled_fairness_on_shared_bottleneck () =
  (* one bottleneck; a 2-subflow LIA flow against a single-path Reno flow:
     coupling should keep the MPTCP flow from taking 2 shares *)
  let sim, net, tb = make_rig ~m:1 () in
  let lia =
    Flow.create ~net ~flow:1
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~paths:[ 0; 0 ] ~coupling:(Lia.coupling ()) ()
  in
  let reno =
    Flow.create ~net ~flow:2
      ~src:(Testbed.left_id tb 1)
      ~dst:(Testbed.right_id tb 1)
      ~paths:[ 0 ] ~coupling:reno_uncoupled ()
  in
  Sim.run ~until:(Time.sec 2.) sim;
  let r_lia = float_of_int (Flow.segments_acked lia) in
  let r_reno = float_of_int (Flow.segments_acked reno) in
  (* uncoupled 2-subflow would take ~2/3 (ratio 2.0); coupled LIA should
     stay well below that *)
  Alcotest.(check bool) "lia not grabbing two shares" true
    (r_lia /. r_reno < 1.6)

(* ----- aggregate view across subflows ----- *)

(* The refactor's regression seam: a coupled controller's increase rule
   must read its siblings' windows live through the group — an update on
   subflow 1 changes subflow 0's very next per-ACK gain, within the same
   round. Driven through the no-network conformance rig. *)
let test_aggregate_view_sees_sibling_updates () =
  let module Scheme = Xmp_workload.Scheme in
  let module C = Xmp_workload.Conformance in
  List.iter
    (fun scheme ->
      let rig = C.make_rig scheme in
      (* grow subflow 0, then a loss moves it to congestion avoidance *)
      for _ = 1 to 12 do
        C.apply rig (C.Ack 1)
      done;
      C.apply rig C.Fast_retransmit;
      let gain () =
        let pre = C.cwnd rig 0 in
        C.apply rig (C.Ack 1);
        C.cwnd rig 0 -. pre
      in
      let before = gain () in
      (* sibling progress delivered between two of subflow 0's ACKs: the
         window subflow 1 gained must already damp subflow 0's gain (3
         segments keep subflow 0 the largest-window path, so OLIA's
         collected-set classification of it is unchanged) *)
      C.apply rig (C.Sibling_ack 3);
      let after = gain () in
      Alcotest.(check bool)
        (Scheme.name scheme ^ ": sibling growth damps the next increase")
        true (after < before))
    [ Xmp_workload.Scheme.olia 2; Xmp_workload.Scheme.balia 2 ]

(* ----- deferred start: a waiting flow keeps a record, not connections ----- *)

let deferred_flow ?observer ~size_segments net tb =
  Flow.create ~net ~flow:1
    ~src:(Testbed.left_id tb 0)
    ~dst:(Testbed.right_id tb 0)
    ~paths:[ 0; 1 ]
    ~coupling:(Xmp_core.Trash.coupling ())
    ~config:Xmp_core.Xmp.tcp_config ~size_segments ~start_at:(Time.ms 10)
    ?observer ()

let endpoints net = (Net.Network.endpoint_stats net).Hashtbl.num_bindings

(* A 2-segment XMP-2 flow: subflow 0's initial window takes both
   segments at the start, so subflow 1 is built onto a drained source
   and finishes at once. The flow must still wait for subflow 0's ACK;
   counting built subflows instead of paths completes it at its start. *)
let test_deferred_builds_at_start () =
  let sim, net, tb = make_rig () in
  let completion = ref None in
  let observer =
    {
      Flow.silent with
      on_complete =
        (fun f ->
          completion :=
            Some (Sim.now sim, Tcp.segments_acked (Flow.subflows f).(0)));
    }
  in
  let f = deferred_flow ~observer ~size_segments:2 net tb in
  Alcotest.(check int) "nothing built while waiting" 0
    (Array.length (Flow.subflows f));
  Alcotest.(check int) "no endpoint while waiting" 0 (endpoints net);
  Sim.run ~until:(Time.ms 10) sim;
  let subs = Flow.subflows f in
  Alcotest.(check int) "both paths built at the start" 2 (Array.length subs);
  Alcotest.(check int) "subflow 0 took both segments" 2
    (Tcp.snd_max subs.(0));
  Alcotest.(check bool) "subflow 1 finished as it was built" true
    (Tcp.is_complete subs.(1));
  Alcotest.(check int) "subflow 0 registered at both hosts" 2 (endpoints net);
  Alcotest.(check bool) "flow not complete at its start" false
    (Flow.is_complete f);
  Sim.run ~until:(Time.ms 100) sim;
  match !completion with
  | None -> Alcotest.fail "the flow never completed"
  | Some (at, acked0) ->
    Alcotest.(check bool) "completes after its start" true (at > Time.ms 10);
    Alcotest.(check int) "once subflow 0's data is acked" 2 acked0;
    Alcotest.(check int) "every endpoint torn down" 0 (endpoints net)

let test_deferred_stop_before_start () =
  let sim, net, tb = make_rig () in
  let f = deferred_flow ~size_segments:100 net tb in
  Sim.at sim (Time.ms 5) (fun () -> Flow.stop f);
  Sim.run ~until:(Time.ms 50) sim;
  Alcotest.(check int) "nothing built" 0 (Array.length (Flow.subflows f));
  Alcotest.(check int) "nothing sent" 0
    (List.fold_left
       (fun acc l -> acc + Net.Link.packets_sent l)
       0 (Net.Network.links net));
  Alcotest.(check int) "no endpoint" 0 (endpoints net);
  Alcotest.(check bool) "not complete" false (Flow.is_complete f)

let test_add_subflow_while_waiting () =
  let _, net, tb = make_rig () in
  let f = deferred_flow ~size_segments:100 net tb in
  Alcotest.check_raises "refused before the start"
    (Invalid_argument "Mptcp_flow.add_subflow: flow not started") (fun () ->
      ignore (Flow.add_subflow f ~path:0))

(* A connection's two halves key their endpoints by host, so a flow from
   a host to itself would register one over the other. *)
let test_self_flow_rejected () =
  let _, net, tb = make_rig () in
  let h = Testbed.left_id tb 0 in
  Alcotest.check_raises "Mptcp_flow.create"
    (Invalid_argument "Mptcp_flow.create: src = dst") (fun () ->
      ignore
        (Flow.create ~net ~flow:1 ~src:h ~dst:h ~paths:[ 0 ]
           ~coupling:reno_uncoupled ~start_at:(Time.ms 10) ()));
  Alcotest.check_raises "Tcp.create" (Invalid_argument "Tcp.create: src = dst")
    (fun () ->
      ignore
        (Tcp.create ~net ~flow:2 ~subflow:0 ~src:h ~dst:h ~path:0
           ~cc:(fun v -> Xmp_transport.Reno.make v) ()));
  Alcotest.(check int) "nothing registered" 0 (endpoints net)

let suite =
  [
    Alcotest.test_case "group registry" `Quick test_group_registry;
    Alcotest.test_case "aggregate view sees sibling updates" `Quick
      test_aggregate_view_sees_sibling_updates;
    Alcotest.test_case "lia alpha single path" `Quick
      test_lia_alpha_single_path;
    Alcotest.test_case "lia alpha equal paths" `Quick
      test_lia_alpha_equal_paths;
    Alcotest.test_case "lia alpha degenerate" `Quick test_lia_alpha_degenerate;
    Alcotest.test_case "flow completion" `Quick test_flow_completion;
    Alcotest.test_case "flow uses both paths" `Quick test_flow_uses_both_paths;
    Alcotest.test_case "late subflow addition" `Quick test_add_subflow;
    Alcotest.test_case "goodput until" `Quick test_goodput_until;
    Alcotest.test_case "stop flow" `Quick test_stop_flow;
    Alcotest.test_case "subflow acked callback" `Quick
      test_subflow_acked_callback;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "olia completes" `Quick test_olia_completes;
    Alcotest.test_case "coupled fairness" `Quick
      test_coupled_fairness_on_shared_bottleneck;
    Alcotest.test_case "deferred flow built at its start" `Quick
      test_deferred_builds_at_start;
    Alcotest.test_case "stop before the start" `Quick
      test_deferred_stop_before_start;
    Alcotest.test_case "add_subflow while waiting" `Quick
      test_add_subflow_while_waiting;
    Alcotest.test_case "flow to itself rejected" `Quick test_self_flow_rejected;
  ]
