module R = Xmp_transport.Rtt_estimator
module Cc = Xmp_transport.Cc
module Time = Xmp_engine.Time

(* The estimator state a connection keeps: srtt and min_rtt in its
   controller's view, rttvar and the backoff exponent beside it, the
   bounds in its config. *)
type est = {
  view : Cc.view;
  mutable rttvar : Time.t;
  mutable backoff : int;
  rto_min : Time.t;
  rto_max : Time.t;
  granularity : Time.t;
}

(* bounds default to a connection's: 200 ms, 60 s and 200 us *)
let defaults = Xmp_transport.Tcp.default_config

let create ?(rto_min = defaults.rto_min) ?(rto_max = defaults.rto_max)
    ?(granularity = defaults.rto_granularity) () =
  {
    view =
      Cc.view ~srtt:R.initial_srtt ~min_rtt:Time.infinity
        ~now:(fun () -> 0)
        ();
    rttvar = R.initial_rttvar;
    backoff = 0;
    rto_min;
    rto_max;
    granularity;
  }

let sample e rtt = e.rttvar <- R.sample e.view ~rttvar:e.rttvar rtt
let srtt e = e.view.Cc.srtt
let min_rtt e = e.view.Cc.min_rtt
let has_sample e = not (Time.is_infinite (min_rtt e))

let rto e =
  R.timeout ~rto_min:e.rto_min ~rto_max:e.rto_max ~granularity:e.granularity
    ~srtt:(srtt e) ~rttvar:e.rttvar ~backoff:e.backoff

let backoff e = e.backoff <- e.backoff + 1
let reset_backoff e = e.backoff <- 0

let test_defaults () =
  let e = create () in
  Alcotest.(check bool) "no sample" false (has_sample e);
  Alcotest.(check int) "initial srtt" (Time.ms 200) (srtt e);
  Alcotest.(check bool) "initial min_rtt" true
    (Time.is_infinite (min_rtt e))

let test_first_sample () =
  let e = create () in
  sample e (Time.us 100);
  Alcotest.(check bool) "has sample" true (has_sample e);
  Alcotest.(check int) "srtt = sample" (Time.us 100) (srtt e);
  Alcotest.(check int) "rttvar = sample/2" (Time.us 50) e.rttvar;
  Alcotest.(check int) "min" (Time.us 100) (min_rtt e)

let test_ewma () =
  let e = create () in
  sample e (Time.us 100);
  sample e (Time.us 200);
  (* srtt = 7/8*100 + 1/8*200 = 112.5 us *)
  Alcotest.(check int) "srtt smoothing" (Time.ns 112_500) (srtt e);
  Alcotest.(check int) "min keeps smallest" (Time.us 100) (min_rtt e)

let test_rto_floor () =
  let e = create () in
  sample e (Time.us 100);
  (* srtt + 4*rttvar = 300 us, far below the 200 ms floor *)
  Alcotest.(check int) "rto floored" (Time.ms 200) (rto e)

let test_rto_above_floor () =
  let e = create ~rto_min:(Time.us 10) () in
  sample e (Time.us 100);
  Alcotest.(check int) "rto = srtt + 4 var" (Time.us 300) (rto e)

let test_backoff () =
  let e = create () in
  sample e (Time.us 100);
  backoff e;
  Alcotest.(check int) "doubled" (Time.ms 400) (rto e);
  backoff e;
  Alcotest.(check int) "quadrupled" (Time.ms 800) (rto e);
  reset_backoff e;
  Alcotest.(check int) "reset" (Time.ms 200) (rto e)

let test_rto_cap () =
  let e = create ~rto_max:(Time.sec 1.) () in
  sample e (Time.us 100);
  for _ = 1 to 10 do
    backoff e
  done;
  Alcotest.(check int) "capped" (Time.sec 1.) (rto e)

(* On a steady path rttvar decays geometrically, so without the
   granularity term the RTO collapses to srtt and any delayed-ACK hold
   fires it spuriously once rto_min is small. The G term keeps a fixed
   margin above srtt. *)
let test_granularity_floor () =
  let e = create ~rto_min:(Time.ns 1) () in
  for _ = 1 to 20 do
    sample e (Time.us 100)
  done;
  Alcotest.(check bool) "rttvar decayed below G/4" true
    (Time.mul e.rttvar 4 < Time.us 200);
  Alcotest.(check int) "rto = srtt + G" (Time.us 300) (rto e)

let test_granularity_tiny_collapses () =
  (* the pre-fix behaviour, now opt-in: G ~ 0 lets rto converge to srtt *)
  let e = create ~rto_min:(Time.ns 1) ~granularity:(Time.ns 1) () in
  for _ = 1 to 40 do
    sample e (Time.us 100)
  done;
  Alcotest.(check bool) "rto collapses toward srtt" true
    (rto e < Time.us 102);
  Alcotest.(check bool) "still above srtt" true (rto e > srtt e)

let test_ms_scale_tracks_estimator () =
  (* a 50 ms path with a 1 ms floor: the timeout must track
     srtt + max(G, 4 rttvar), far below the historical 200 ms floor *)
  let e = create ~rto_min:(Time.ms 1) () in
  sample e (Time.ms 50);
  Alcotest.(check int) "first sample: srtt + 4 var" (Time.ms 150) (rto e);
  for _ = 1 to 20 do
    sample e (Time.ms 50)
  done;
  Alcotest.(check bool) "steady state well under the old floor" true
    (rto e < Time.ms 60);
  Alcotest.(check bool) "and above srtt" true (rto e > Time.ms 50)

let test_negative_rejected () =
  let e = create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Rtt_estimator.sample: negative") (fun () ->
      sample e (-5))

let suite =
  [
    Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "first sample" `Quick test_first_sample;
    Alcotest.test_case "EWMA smoothing" `Quick test_ewma;
    Alcotest.test_case "RTOmin floor" `Quick test_rto_floor;
    Alcotest.test_case "RTO above floor" `Quick test_rto_above_floor;
    Alcotest.test_case "exponential backoff" `Quick test_backoff;
    Alcotest.test_case "RTO cap" `Quick test_rto_cap;
    Alcotest.test_case "granularity holds RTO above srtt" `Quick
      test_granularity_floor;
    Alcotest.test_case "tiny granularity collapses to srtt" `Quick
      test_granularity_tiny_collapses;
    Alcotest.test_case "ms-scale RTT tracks estimator" `Quick
      test_ms_scale_tracks_estimator;
    Alcotest.test_case "negative sample rejected" `Quick
      test_negative_rejected;
  ]
