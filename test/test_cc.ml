(* Unit tests of the Reno and DCTCP controllers against a scripted
   connection view (no network involved). *)

module Cc = Xmp_transport.Cc
module Reno = Xmp_transport.Reno
module Dctcp = Xmp_transport.Dctcp
module Time = Xmp_engine.Time

type fake = {
  mutable una : int;
  mutable nxt : int;
  mutable now : Time.t;
  mutable srtt : Time.t;
}

let fake_view () =
  let f = { una = 0; nxt = 0; now = 0; srtt = Time.us 200 } in
  let view =
    {
      Cc.snd_una = (fun () -> f.una);
      snd_nxt = (fun () -> f.nxt);
      srtt = (fun () -> f.srtt);
      min_rtt = (fun () -> f.srtt);
      now = (fun () -> f.now);
      telemetry = Xmp_telemetry.Sink.unscoped;
    }
  in
  (f, view)

let ack cc f n =
  f.una <- f.una + n;
  if f.nxt < f.una then f.nxt <- f.una;
  cc.Cc.on_ack ~ack:f.una ~newly_acked:n ~ce_count:0

let checkf = Alcotest.(check (float 1e-6))

(* ----- Reno ----- *)

let test_reno_slow_start () =
  let _, view = fake_view () in
  let cc = Reno.make view in
  checkf "initial window" 3. (cc.Cc.cwnd ());
  Alcotest.(check bool) "starts in slow start" true (cc.Cc.in_slow_start ());
  let f, view = fake_view () in
  let cc = Reno.make view in
  ack cc f 1;
  checkf "+1 per ack" 4. (cc.Cc.cwnd ());
  ack cc f 2;
  checkf "+1 per acked segment" 6. (cc.Cc.cwnd ())

let test_reno_fast_retransmit () =
  let f, view = fake_view () in
  let cc = Reno.make view in
  for _ = 1 to 17 do
    ack cc f 1
  done;
  checkf "grown" 20. (cc.Cc.cwnd ());
  cc.Cc.on_fast_retransmit ();
  checkf "halved" 10. (cc.Cc.cwnd ());
  Alcotest.(check bool) "left slow start" false (cc.Cc.in_slow_start ());
  ack cc f 1;
  checkf "CA growth is 1/w" 10.1 (cc.Cc.cwnd ())

let test_reno_timeout () =
  let f, view = fake_view () in
  let cc = Reno.make view in
  for _ = 1 to 17 do
    ack cc f 1
  done;
  cc.Cc.on_timeout ();
  checkf "collapsed" 1. (cc.Cc.cwnd ());
  Alcotest.(check bool) "back to slow start" true (cc.Cc.in_slow_start ());
  ack cc f 1;
  checkf "slow-start regrowth" 2. (cc.Cc.cwnd ())

let test_reno_min_cwnd () =
  let _, view = fake_view () in
  let cc = Reno.make view in
  cc.Cc.on_fast_retransmit ();
  checkf "never below 2 on halving" 2. (cc.Cc.cwnd ())

let test_reno_no_ecn_by_default () =
  let f, view = fake_view () in
  let cc = Reno.make view in
  for _ = 1 to 7 do
    ack cc f 1
  done;
  let before = cc.Cc.cwnd () in
  cc.Cc.on_ecn ~count:3;
  checkf "ECN ignored" before (cc.Cc.cwnd ());
  Alcotest.(check bool) "no CWR" false (cc.Cc.take_cwr ())

let test_reno_ecn_mode () =
  let f, view = fake_view () in
  let params = { Reno.default_params with ecn = true } in
  let cc = Reno.make ~params view in
  f.nxt <- 100;
  for _ = 1 to 17 do
    ack cc f 1
  done;
  f.nxt <- 120;
  let before = cc.Cc.cwnd () in
  cc.Cc.on_ecn ~count:1;
  checkf "halved on ECE" (before /. 2.) (cc.Cc.cwnd ());
  Alcotest.(check bool) "CWR pending once" true (cc.Cc.take_cwr ());
  Alcotest.(check bool) "CWR consumed" false (cc.Cc.take_cwr ());
  (* second ECE within the same window is ignored *)
  let w = cc.Cc.cwnd () in
  cc.Cc.on_ecn ~count:1;
  checkf "once per window" w (cc.Cc.cwnd ())

let test_custom_increase () =
  let f, view = fake_view () in
  let cc =
    Reno.make_with_increase
      ~increase:(fun ~cwnd:_ -> 0.5)
      ~backoff:(fun ~cwnd:_ -> 0.8)
      () view
  in
  cc.Cc.on_fast_retransmit ();
  (* leave slow start, keeping 4/5 of the initial 3 segments *)
  let w = cc.Cc.cwnd () in
  checkf "custom backoff" (3. *. 0.8) w;
  ack cc f 1;
  checkf "custom gain" (w +. 0.5) (cc.Cc.cwnd ())

(* ----- DCTCP ----- *)

let test_dctcp_slow_start_exit () =
  let f, view = fake_view () in
  let cc = Dctcp.make view in
  for _ = 1 to 10 do
    ack cc f 1
  done;
  Alcotest.(check bool) "in slow start" true (cc.Cc.in_slow_start ());
  cc.Cc.on_ecn ~count:1;
  Alcotest.(check bool) "left slow start on mark" false
    (cc.Cc.in_slow_start ())

let test_dctcp_cut_proportional_to_alpha () =
  let f, view = fake_view () in
  (* with a negligible gain, alpha stays at its initial 1: the first
     congestion signal cuts by (almost exactly) half *)
  let params = { Dctcp.default_params with g = 1e-12 } in
  let cc = Dctcp.make ~params view in
  for _ = 1 to 17 do
    ack cc f 1
  done;
  let w = cc.Cc.cwnd () in
  cc.Cc.on_ecn ~count:1;
  checkf "alpha=1 halves" (w /. 2.) (cc.Cc.cwnd ())

let test_dctcp_alpha_decays_when_clean () =
  let f, view = fake_view () in
  let params = { Dctcp.default_params with init_alpha = 1.; g = 0.5 } in
  let cc = Dctcp.make ~params view in
  (* three clean window-boundary updates with g = 1/2 and F = 0:
     alpha = 1 -> 0.5 -> 0.25 -> 0.125; cwnd slow-starts to 33 *)
  f.nxt <- 10;
  ack cc f 10;
  f.nxt <- 20;
  ack cc f 10;
  f.nxt <- 30;
  ack cc f 10;
  cc.Cc.on_ecn ~count:1;
  checkf "cut by alpha/2 = 6.25%" (33. *. (1. -. 0.0625)) (cc.Cc.cwnd ())

let test_dctcp_once_per_window () =
  let f, view = fake_view () in
  let cc = Dctcp.make view in
  for _ = 1 to 17 do
    ack cc f 1
  done;
  f.nxt <- 100;
  cc.Cc.on_ecn ~count:1;
  let w = cc.Cc.cwnd () in
  cc.Cc.on_ecn ~count:1;
  checkf "second mark in window ignored" w (cc.Cc.cwnd ());
  (* crossing the window boundary re-arms the cut *)
  f.una <- 120;
  f.nxt <- 130;
  cc.Cc.on_ack ~ack:120 ~newly_acked:20 ~ce_count:5;
  cc.Cc.on_ecn ~count:1;
  Alcotest.(check bool) "re-armed after window" true (cc.Cc.cwnd () < w +. 21.)

let test_dctcp_loss_reactions () =
  let f, view = fake_view () in
  let cc = Dctcp.make view in
  for _ = 1 to 17 do
    ack cc f 1
  done;
  let w = cc.Cc.cwnd () in
  cc.Cc.on_fast_retransmit ();
  checkf "halves on loss" (w /. 2.) (cc.Cc.cwnd ());
  cc.Cc.on_timeout ();
  checkf "collapses on timeout" 1. (cc.Cc.cwnd ())

let suite =
  [
    Alcotest.test_case "reno slow start" `Quick test_reno_slow_start;
    Alcotest.test_case "reno fast retransmit" `Quick
      test_reno_fast_retransmit;
    Alcotest.test_case "reno timeout" `Quick test_reno_timeout;
    Alcotest.test_case "reno min cwnd" `Quick test_reno_min_cwnd;
    Alcotest.test_case "reno ignores ECN by default" `Quick
      test_reno_no_ecn_by_default;
    Alcotest.test_case "reno classic ECN mode" `Quick test_reno_ecn_mode;
    Alcotest.test_case "custom increase hook" `Quick test_custom_increase;
    Alcotest.test_case "dctcp slow-start exit" `Quick
      test_dctcp_slow_start_exit;
    Alcotest.test_case "dctcp cut proportional to alpha" `Quick
      test_dctcp_cut_proportional_to_alpha;
    Alcotest.test_case "dctcp alpha decay" `Quick
      test_dctcp_alpha_decays_when_clean;
    Alcotest.test_case "dctcp once per window" `Quick
      test_dctcp_once_per_window;
    Alcotest.test_case "dctcp loss reactions" `Quick
      test_dctcp_loss_reactions;
  ]
