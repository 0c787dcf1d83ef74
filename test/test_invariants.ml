(* The runtime invariant checker (Xmp_check.Invariant) and its call sites
   in the engine and transport. The end-to-end cases feed the stack state
   that violates an invariant and assert the checker catches it. *)

module Invariant = Xmp_check.Invariant
module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Testbed = Xmp_net.Testbed
module Tcp = Xmp_transport.Tcp
module Cc = Xmp_transport.Cc

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* The one check form every call site uses. *)
let check ~name cond detail =
  if not (Invariant.holds cond) then Invariant.fail ~name detail

let test_check_passes () =
  Invariant.reset_counters ();
  check ~name:"unit.pass" true (fun () -> "never rendered");
  Alcotest.(check int) "one check run" 1 (Invariant.checks_run ())

let test_check_raises () =
  let raised =
    try
      check ~name:"unit.fail" false (fun () -> "detail here");
      None
    with Invariant.Violation msg -> Some msg
  in
  match raised with
  | None -> Alcotest.fail "expected Violation"
  | Some msg ->
    Alcotest.(check bool) "message names the invariant" true
      (String.length msg > 0
      && contains ~sub:"unit.fail" msg
      && contains ~sub:"detail here" msg)

(* ----- end-to-end: a violated invariant inside the stack is caught ----- *)

(* A congestion controller whose window is below one segment violates the
   cwnd >= 1 MSS invariant the paper's schemes all maintain; Tcp's send
   path asserts it. *)
let broken_window = { Cc.cwnd = 0.5; ssthresh = Float.max_float }

let broken_ops =
  {
    Cc.name = "broken";
    view = Fun.id;
    window = (fun _ -> broken_window);
    on_ack = (fun _ ~ack:_ ~newly_acked:_ ~ce_count:_ -> ());
    on_ecn = (fun _ ~count:_ -> ());
    on_fast_retransmit = ignore;
    on_timeout = ignore;
    in_slow_start = (fun _ -> false);
    take_cwr = Cc.nop_take_cwr;
  }

let broken_cc : Cc.factory = fun view -> Cc.Cc (broken_ops, view)

let rig () =
  let sim = Sim.create ~config:{ Sim.default_config with seed = 3 } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail ~capacity_pkts:20
  in
  let tb =
    Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.mbps 100.; delay = Time.us 50; disc } ]
      ()
  in
  (net, tb)

let start_broken_flow (net, tb) =
  ignore
    (Tcp.create ~net ~flow:1 ~subflow:0
       ~src:(Testbed.left_id tb 0)
       ~dst:(Testbed.right_id tb 0)
       ~path:0 ~cc:broken_cc
       ~source:(Tcp.Limited (ref 10))
       ())

let test_sub_mss_cwnd_caught () =
  let caught =
    try
      start_broken_flow (rig ());
      None
    with Invariant.Violation msg -> Some msg
  in
  match caught with
  | None -> Alcotest.fail "cwnd < 1 MSS was not caught"
  | Some msg ->
    Alcotest.(check bool) "names the cwnd invariant" true
      (contains ~sub:"tcp.cwnd-at-least-one-mss" msg)

(* ----- the packet path's cost, pinned on a fat-tree run ----- *)

module Driver = Xmp_workload.Driver

(* A passing check allocates nothing and neither does forwarding, so a
   20 ms XMP-2 permutation on the k=4 fat tree (seed 1) allocates about
   one minor word per event, setup included. One check site that builds
   its detail closure before testing adds about two. *)
let test_allocation_budget () =
  let before = Gc.minor_words () in
  let r = Driver.run { Driver.default_config with horizon = Time.ms 20 } in
  let per_event =
    (Gc.minor_words () -. before) /. float_of_int r.Driver.events
  in
  if per_event > 1.5 then
    Alcotest.failf "%.2f minor words per event over %d events (want <= 1.5)"
      per_event r.Driver.events

(* Every check site still runs exactly as often: a migration that drops
   or duplicates one moves this tally. *)
let test_checks_run_pinned () =
  Invariant.reset_counters ();
  let r =
    Driver.run
      {
        Driver.default_config with
        horizon = Time.ms 5;
        pattern = Driver.Permutation { min_segments = 100; max_segments = 400 };
      }
  in
  Alcotest.(check int) "events" 50_275 r.Driver.events;
  Alcotest.(check int) "checks run" 164_063 (Invariant.checks_run ())

let suite =
  [
    Alcotest.test_case "passing check counts" `Quick test_check_passes;
    Alcotest.test_case "failing check raises" `Quick test_check_raises;
    Alcotest.test_case "sub-MSS cwnd caught in Tcp send path" `Quick
      test_sub_mss_cwnd_caught;
    Alcotest.test_case "allocation budget per event" `Quick
      test_allocation_budget;
    Alcotest.test_case "checks run on a permutation" `Quick
      test_checks_run_pinned;
  ]
