(* Unit tests of the Reno and DCTCP controllers against a scripted
   connection view (no network involved). *)

module Cc = Xmp_transport.Cc
module Reno = Xmp_transport.Reno
module Dctcp = Xmp_transport.Dctcp
module Time = Xmp_engine.Time

(* the scripted connection is the view itself: tests move its fields *)
let fake_view () =
  let view =
    Cc.view ~srtt:(Time.us 200) ~min_rtt:(Time.us 200) ~now:(fun () -> 0) ()
  in
  (view, view)

let ack cc f n =
  f.Cc.snd_una <- f.Cc.snd_una + n;
  if f.Cc.snd_nxt < f.Cc.snd_una then f.Cc.snd_nxt <- f.Cc.snd_una;
  Cc.on_ack cc ~ack:f.Cc.snd_una ~newly_acked:n ~ce_count:0

let checkf = Alcotest.(check (float 1e-6))

(* ----- Reno ----- *)

let test_reno_slow_start () =
  let _, view = fake_view () in
  let cc = Reno.make view in
  checkf "initial window" 3. (Cc.cwnd cc);
  Alcotest.(check bool) "starts in slow start" true (Cc.in_slow_start cc);
  let f, view = fake_view () in
  let cc = Reno.make view in
  ack cc f 1;
  checkf "+1 per ack" 4. (Cc.cwnd cc);
  ack cc f 2;
  checkf "+1 per acked segment" 6. (Cc.cwnd cc)

let test_reno_fast_retransmit () =
  let f, view = fake_view () in
  let cc = Reno.make view in
  for _ = 1 to 17 do
    ack cc f 1
  done;
  checkf "grown" 20. (Cc.cwnd cc);
  Cc.on_fast_retransmit cc;
  checkf "halved" 10. (Cc.cwnd cc);
  Alcotest.(check bool) "left slow start" false (Cc.in_slow_start cc);
  ack cc f 1;
  checkf "CA growth is 1/w" 10.1 (Cc.cwnd cc)

let test_reno_timeout () =
  let f, view = fake_view () in
  let cc = Reno.make view in
  for _ = 1 to 17 do
    ack cc f 1
  done;
  Cc.on_timeout cc;
  checkf "collapsed" 1. (Cc.cwnd cc);
  Alcotest.(check bool) "back to slow start" true (Cc.in_slow_start cc);
  ack cc f 1;
  checkf "slow-start regrowth" 2. (Cc.cwnd cc)

let test_reno_min_cwnd () =
  let _, view = fake_view () in
  let cc = Reno.make view in
  Cc.on_fast_retransmit cc;
  checkf "never below 2 on halving" 2. (Cc.cwnd cc)

let test_reno_no_ecn_by_default () =
  let f, view = fake_view () in
  let cc = Reno.make view in
  for _ = 1 to 7 do
    ack cc f 1
  done;
  let before = Cc.cwnd cc in
  Cc.on_ecn cc ~count:3;
  checkf "ECN ignored" before (Cc.cwnd cc);
  Alcotest.(check bool) "no CWR" false (Cc.take_cwr cc)

let test_reno_ecn_mode () =
  let f, view = fake_view () in
  let params = { Reno.default_params with ecn = true } in
  let cc = Reno.make ~params view in
  f.Cc.snd_nxt <- 100;
  for _ = 1 to 17 do
    ack cc f 1
  done;
  f.Cc.snd_nxt <- 120;
  let before = Cc.cwnd cc in
  Cc.on_ecn cc ~count:1;
  checkf "halved on ECE" (before /. 2.) (Cc.cwnd cc);
  Alcotest.(check bool) "CWR pending once" true (Cc.take_cwr cc);
  Alcotest.(check bool) "CWR consumed" false (Cc.take_cwr cc);
  (* second ECE within the same window is ignored *)
  let w = Cc.cwnd cc in
  Cc.on_ecn cc ~count:1;
  checkf "once per window" w (Cc.cwnd cc)

let test_custom_increase () =
  let f, view = fake_view () in
  let cc =
    Reno.create
      (Reno.ops ~name:"custom"
         ~increase:(fun _ ~cwnd:_ -> 0.5)
         ~backoff:(fun _ ~cwnd:_ -> 0.8))
      () view
  in
  Cc.on_fast_retransmit cc;
  (* leave slow start, keeping 4/5 of the initial 3 segments *)
  let w = Cc.cwnd cc in
  checkf "custom backoff" (3. *. 0.8) w;
  ack cc f 1;
  checkf "custom gain" (w +. 0.5) (Cc.cwnd cc)

(* ----- DCTCP ----- *)

(* DCTCP's defaults, spelled out so a case can vary one field *)
let dctcp_params =
  { Dctcp.g = 1. /. 16.; init_alpha = 1.; init_cwnd = 3.; min_cwnd = 1. }

let test_dctcp_slow_start_exit () =
  let f, view = fake_view () in
  let cc = Dctcp.make view in
  for _ = 1 to 10 do
    ack cc f 1
  done;
  Alcotest.(check bool) "in slow start" true (Cc.in_slow_start cc);
  Cc.on_ecn cc ~count:1;
  Alcotest.(check bool) "left slow start on mark" false
    (Cc.in_slow_start cc)

let test_dctcp_cut_proportional_to_alpha () =
  let f, view = fake_view () in
  (* with a negligible gain, alpha stays at its initial 1: the first
     congestion signal cuts by (almost exactly) half *)
  let params = { dctcp_params with g = 1e-12 } in
  let cc = Dctcp.make ~params view in
  for _ = 1 to 17 do
    ack cc f 1
  done;
  let w = Cc.cwnd cc in
  Cc.on_ecn cc ~count:1;
  checkf "alpha=1 halves" (w /. 2.) (Cc.cwnd cc)

let test_dctcp_alpha_decays_when_clean () =
  let f, view = fake_view () in
  let params = { dctcp_params with init_alpha = 1.; g = 0.5 } in
  let cc = Dctcp.make ~params view in
  (* three clean window-boundary updates with g = 1/2 and F = 0:
     alpha = 1 -> 0.5 -> 0.25 -> 0.125; cwnd slow-starts to 33 *)
  f.Cc.snd_nxt <- 10;
  ack cc f 10;
  f.Cc.snd_nxt <- 20;
  ack cc f 10;
  f.Cc.snd_nxt <- 30;
  ack cc f 10;
  Cc.on_ecn cc ~count:1;
  checkf "cut by alpha/2 = 6.25%" (33. *. (1. -. 0.0625)) (Cc.cwnd cc)

let test_dctcp_once_per_window () =
  let f, view = fake_view () in
  let cc = Dctcp.make view in
  for _ = 1 to 17 do
    ack cc f 1
  done;
  f.Cc.snd_nxt <- 100;
  Cc.on_ecn cc ~count:1;
  let w = Cc.cwnd cc in
  Cc.on_ecn cc ~count:1;
  checkf "second mark in window ignored" w (Cc.cwnd cc);
  (* crossing the window boundary re-arms the cut *)
  f.Cc.snd_una <- 120;
  f.Cc.snd_nxt <- 130;
  Cc.on_ack cc ~ack:120 ~newly_acked:20 ~ce_count:5;
  Cc.on_ecn cc ~count:1;
  Alcotest.(check bool) "re-armed after window" true (Cc.cwnd cc < w +. 21.)

let test_dctcp_loss_reactions () =
  let f, view = fake_view () in
  let cc = Dctcp.make view in
  for _ = 1 to 17 do
    ack cc f 1
  done;
  let w = Cc.cwnd cc in
  Cc.on_fast_retransmit cc;
  checkf "halves on loss" (w /. 2.) (Cc.cwnd cc);
  Cc.on_timeout cc;
  checkf "collapses on timeout" 1. (Cc.cwnd cc)

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
