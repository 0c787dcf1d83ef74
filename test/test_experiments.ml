(* Qualitative invariants of the paper experiments at miniature scale:
   each figure's headline behaviour must show up even in very short runs. *)

module E = Xmp_experiments
module Time = Xmp_engine.Time

let tiny = 0.05 (* 20x faster than the registry's schedules *)
let no_faults = Xmp_engine.Fault_spec.empty

let test_probe () =
  let sim = Xmp_engine.Sim.create () in
  let probe = E.Probe.create ~sim ~bucket_s:0.1 ~horizon_s:1.0 in
  let record = E.Probe.recorder probe "s1" in
  (* 10 segments at t = 0.05 s -> bucket 0 *)
  Xmp_engine.Sim.at sim (Time.ms 50) (fun () -> record 10);
  Xmp_engine.Sim.run sim;
  let rates = E.Probe.rates_bps probe "s1" in
  let expected = float_of_int (10 * 1460 * 8) /. 0.1 in
  Alcotest.(check (float 1e-6)) "bucketed rate" expected rates.(0);
  Alcotest.(check (float 1e-6)) "other buckets empty" 0. rates.(5);
  Alcotest.(check (list string)) "names" [ "s1" ] (E.Probe.names probe);
  Alcotest.(check (float 1e-6))
    "normalized" (expected /. 1e9)
    (E.Probe.normalized probe "s1" ~norm_bps:1e9).(0);
  Alcotest.(check (float 1e-6))
    "window mean over first bucket" expected
    (E.Probe.window_mean probe "s1" ~from_s:0. ~until_s:0.1);
  Alcotest.(check int) "unknown series gives zeros" 10
    (Array.length (E.Probe.rates_bps probe "nope"))

let test_fig1_utilization_and_fairness () =
  List.iter
    (fun v ->
      let r = E.Fig1.run ~scale:tiny ~seed:E.Fig1.seed ~faults:no_faults v in
      Alcotest.(check bool)
        (Printf.sprintf "utilization high (dctcp=%b k=%d)" v.E.Fig1.dctcp
           v.E.Fig1.k)
        true (r.E.Fig1.utilization > 0.6);
      Alcotest.(check bool) "jain sane" true
        (r.E.Fig1.jain_all_active > 0.25
        && r.E.Fig1.jain_all_active <= 1.00001);
      Alcotest.(check int) "four flows" 4 (List.length r.E.Fig1.rates))
    E.Fig1.variants

let test_fig1_halving_k20_fair () =
  (* the paper's "good" quadrant: halving with Equation-1-satisfying K *)
  let r = E.Fig1.run ~scale:0.1
      ~seed:E.Fig1.seed ~faults:no_faults { E.Fig1.dctcp = false; k = 20 } in
  Alcotest.(check bool) "fair" true (r.E.Fig1.jain_all_active > 0.9);
  Alcotest.(check bool) "fully utilized" true (r.E.Fig1.utilization > 0.85)

let test_fig4_shifting () =
  let r = E.Fig4.run ~scale:tiny
      ~seed:E.Fig4.seed ~faults:no_faults ~beta:4 () in
  (* while DN1 carries a background flow, Flow 2-1 must fall well below
     the even share, and the flow keeps most of its total rate *)
  Alcotest.(check bool) "share collapsed" true (r.E.Fig4.shifted_share < 0.25);
  Alcotest.(check bool) "total retained" true (r.E.Fig4.compensation > 0.6);
  Alcotest.(check int) "two series" 2 (List.length r.E.Fig4.rates)

let test_fig4_beta6_slower () =
  let r4 = E.Fig4.run ~scale:tiny
      ~seed:E.Fig4.seed ~faults:no_faults ~beta:4 () in
  let r6 = E.Fig4.run ~scale:tiny
      ~seed:E.Fig4.seed ~faults:no_faults ~beta:6 () in
  (* both shift; direction must hold for both betas *)
  Alcotest.(check bool) "beta 6 also shifts" true
    (r6.E.Fig4.shifted_share < 0.3);
  Alcotest.(check bool) "both keep total rate" true
    (r4.E.Fig4.compensation > 0.5 && r6.E.Fig4.compensation > 0.5)

let test_fig6_fairness () =
  let r = E.Fig6.run ~scale:tiny
      ~seed:E.Fig6.seed ~faults:no_faults ~beta:4 () in
  Alcotest.(check bool) "flows fair despite subflow counts" true
    (r.E.Fig6.jain_flows > 0.8);
  Alcotest.(check int) "seven subflow series" 7
    (List.length r.E.Fig6.subflow_rates);
  Alcotest.(check int) "four flow series" 4 (List.length r.E.Fig6.flow_rates)

let test_fig7_compensation () =
  let r = E.Fig7.run ~scale:tiny
      ~seed:E.Fig7.seed ~faults:no_faults ~beta:4 ~k:20 () in
  Alcotest.(check int) "ten series" 10 (List.length r.E.Fig7.rates);
  let series name = List.assoc name r.E.Fig7.rates in
  let mean_over arr lo hi =
    let s = ref 0. in
    for i = lo to hi - 1 do
      s := !s +. arr.(i)
    done;
    !s /. float_of_int (hi - lo)
  in
  (* L3 (used by F2-2, F3-1) gets congested over intervals 5..9 and dies
     at interval 12: those subflows must fall; siblings must rise *)
  let f22 = series "F2-2" and f21 = series "F2-1" in
  let before = mean_over f22 4 5 and loaded = mean_over f22 8 9 in
  Alcotest.(check bool) "F2-2 falls under load" true (loaded < before);
  let sib_before = mean_over f21 4 5 and sib_loaded = mean_over f21 8 9 in
  Alcotest.(check bool) "F2-1 compensates" true (sib_loaded > sib_before);
  (* after L3 is closed, its subflows go to zero *)
  Alcotest.(check (float 1e-6)) "F2-2 dead after link down" 0. f22.(13);
  Alcotest.(check (float 1e-6)) "F3-1 dead after link down" 0.
    (series "F3-1").(13);
  (* other flows keep running *)
  Alcotest.(check bool) "F1-1 alive" true ((series "F1-1").(13) > 0.05)

let test_fatree_matrix_shape () =
  (* 200 ms runs: XMP-2 must beat DCTCP and LIA-2 on permutation goodput *)
  let base =
    { E.Run_spec.default_base with horizon = Time.ms 300 }
  in
  let gp scheme =
    let r = E.Run_spec.result base scheme E.Run_spec.Permutation in
    Xmp_workload.Metrics.mean_goodput_bps r.Xmp_workload.Driver.metrics
  in
  let xmp2 = gp (Xmp_workload.Scheme.xmp 2) in
  let dctcp = gp Xmp_workload.Scheme.dctcp in
  let lia2 = gp (Xmp_workload.Scheme.lia 2) in
  Alcotest.(check bool) "XMP-2 > DCTCP" true (xmp2 > dctcp);
  Alcotest.(check bool) "XMP-2 > LIA-2" true (xmp2 > lia2)

let test_fig1_geometry_rtt () =
  Alcotest.(check int) "zero-load RTT" (Time.us 225)
    (E.Panel.zero_load_rtt E.Fig1.geometry)

let test_fatree_result_cached () =
  let base = { E.Run_spec.default_base with horizon = Time.ms 100 } in
  let r1 =
    E.Run_spec.result base Xmp_workload.Scheme.dctcp
      E.Run_spec.Permutation
  in
  let r2 =
    E.Run_spec.result base Xmp_workload.Scheme.dctcp
      E.Run_spec.Permutation
  in
  Alcotest.(check bool) "memoized (same object)" true (r1 == r2)

let test_coexistence_direction () =
  let base = { E.Run_spec.default_base with horizon = Time.ms 500 } in
  let r =
    E.Coexistence.run base ~partner:Xmp_workload.Scheme.reno ~queue_pkts:100
  in
  Alcotest.(check bool) "XMP beats plain TCP" true
    (r.E.Coexistence.cell.E.Coexistence.xmp_mbps
    > r.E.Coexistence.cell.E.Coexistence.partner_mbps)

let test_pattern_names () =
  Alcotest.(check string) "perm" "Permutation"
    (E.Run_spec.pattern_name E.Run_spec.Permutation);
  Alcotest.(check string) "random" "Random"
    (E.Run_spec.pattern_name E.Run_spec.Random);
  Alcotest.(check string) "incast" "Incast"
    (E.Run_spec.pattern_name E.Run_spec.Incast)

(* ----- scenario registry: digests cover the seed ----- *)

(* The runner's cache keys a scenario by its canonical key, so a run
   whose seed is missing from it would be served stale output after a
   seed change. *)
let test_every_scenario_pins_its_seed () =
  let pins_seed key =
    List.exists
      (String.starts_with ~prefix:"seed=")
      (String.split_on_char ' ' (String.map (function '\n' -> ' ' | c -> c) key))
  in
  List.iter
    (fun (cfg : E.Scenarios.config) ->
      List.iter
        (fun (s : Xmp_runner.Scenario.t) ->
          if not (pins_seed s.key) then
            Alcotest.failf "%s (%s) has no seed= in its key" s.name cfg.tag)
        (E.Scenarios.all cfg))
    [ E.Scenarios.quick; E.Scenarios.default; E.Scenarios.paper ]

(* ----- workload scenarios: runner-width invariance ----- *)

let test_workload_scenarios_across_jobs () =
  let scenarios =
    match E.Scenarios.select E.Scenarios.quick [ "workload" ] with
    | Ok l -> l
    | Error name -> Alcotest.failf "unknown scenario %s" name
  in
  Alcotest.(check (list string))
    "workload group members"
    [ "wl.websearch.k8"; "wl.incast.sweep"; "wl.shuffle" ]
    (List.map (fun s -> s.Xmp_runner.Scenario.name) scenarios);
  let outputs ~jobs =
    let outcomes, _stats =
      Xmp_runner.Runner.run ~jobs ~cache:Xmp_runner.Runner.No_cache
        ~progress:false scenarios
    in
    List.map (fun (o : Xmp_runner.Runner.outcome) -> o.output) outcomes
  in
  let seq = outputs ~jobs:1 in
  let par = outputs ~jobs:4 in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "jobs-1 and jobs-4 bytes identical" a b)
    seq par;
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let found = ref false in
    for i = 0 to hl - nl do
      if String.sub hay i nl = needle then found := true
    done;
    !found
  in
  (match seq with
  | [ websearch; incast; shuffle ] ->
    Alcotest.(check bool) "websearch prints slowdown table" true
      (contains websearch "FCT slowdown");
    Alcotest.(check bool) "websearch reports flow counts" true
      (contains websearch "launched");
    Alcotest.(check bool) "incast sweep covers both schemes" true
      (contains incast "DCTCP" && contains incast "XMP-2");
    Alcotest.(check bool) "incast sweep prints fanouts" true
      (contains incast "fanout 2" && contains incast "fanout 8");
    Alcotest.(check bool) "shuffle reports goodput" true
      (contains shuffle "mean goodput")
  | _ -> Alcotest.fail "expected three workload outputs")

let suite =
  [
    Alcotest.test_case "probe helper" `Quick test_probe;
    Alcotest.test_case "fig1 utilization + fairness" `Slow
      test_fig1_utilization_and_fairness;
    Alcotest.test_case "fig1 halving K=20 is fair" `Slow
      test_fig1_halving_k20_fair;
    Alcotest.test_case "fig4 traffic shifting" `Slow test_fig4_shifting;
    Alcotest.test_case "fig4 beta comparison" `Slow test_fig4_beta6_slower;
    Alcotest.test_case "fig6 fairness" `Slow test_fig6_fairness;
    Alcotest.test_case "fig7 rate compensation" `Slow test_fig7_compensation;
    Alcotest.test_case "fig1 geometry zero-load RTT" `Quick
      test_fig1_geometry_rtt;
    Alcotest.test_case "fat-tree matrix shape" `Slow
      test_fatree_matrix_shape;
    Alcotest.test_case "fat-tree memoization" `Slow test_fatree_result_cached;
    Alcotest.test_case "coexistence direction" `Slow
      test_coexistence_direction;
    Alcotest.test_case "pattern names" `Quick test_pattern_names;
    Alcotest.test_case "every scenario pins its seed" `Quick
      test_every_scenario_pins_its_seed;
    Alcotest.test_case "workload scenarios across jobs" `Slow
      test_workload_scenarios_across_jobs;
  ]
