module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time

let test_initial () =
  let sim = Sim.create () in
  Alcotest.(check int) "starts at zero" 0 (Sim.now sim);
  Alcotest.(check int) "no events executed" 0 (Sim.events_executed sim);
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim)

let test_run_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 30 (fun () -> log := 3 :: !log);
  Sim.at sim 10 (fun () -> log := 1 :: !log);
  Sim.at sim 20 (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "events in order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Sim.now sim)

let test_after () =
  let sim = Sim.create () in
  let fired_at = ref (-1) in
  Sim.at sim 100 (fun () ->
      Sim.after sim 50 (fun () -> fired_at := Sim.now sim));
  Sim.run sim;
  Alcotest.(check int) "after is relative" 150 !fired_at

let test_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  List.iter (fun t -> Sim.at sim t (fun () -> incr count)) [ 10; 20; 30; 40 ];
  Sim.run ~until:25 sim;
  Alcotest.(check int) "only events <= until" 2 !count;
  Alcotest.(check int) "clock parked at until" 25 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "resumes" 4 !count

let test_until_inclusive () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.at sim 25 (fun () -> fired := true);
  Sim.run ~until:25 sim;
  Alcotest.(check bool) "event at the cutoff runs" true !fired

let test_past_scheduling_rejected () =
  let sim = Sim.create () in
  Sim.at sim 100 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Sim: scheduling at 50ns before now 100ns")
        (fun () -> Sim.at sim 50 ignore));
  Sim.run sim

let test_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.at sim 5 (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int))
    "insertion order at equal time"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_timer_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let timer = Sim.timer_at sim 10 (fun () -> fired := true) in
  Alcotest.(check bool) "active before" true (Sim.timer_active timer);
  Sim.cancel timer;
  Alcotest.(check bool) "inactive after cancel" false (Sim.timer_active timer);
  Sim.run sim;
  Alcotest.(check bool) "cancelled timer never fires" false !fired;
  Alcotest.(check int) "cancelled event not counted" 0
    (Sim.events_executed sim)

let test_timer_fires () =
  let sim = Sim.create () in
  let fired = ref false in
  let timer = Sim.timer_after sim 10 (fun () -> fired := true) in
  Sim.run sim;
  Alcotest.(check bool) "fired" true !fired;
  Alcotest.(check bool) "inactive after firing" false (Sim.timer_active timer);
  (* double-cancel is a no-op *)
  Sim.cancel timer

let test_rng_determinism () =
  let draw seed =
    let sim = Sim.create ~config:{ Sim.default_config with seed } () in
    List.init 5 (fun _ -> Random.State.int (Sim.rng sim) 1000)
  in
  Alcotest.(check (list int)) "same seed same draws" (draw 9) (draw 9);
  Alcotest.(check bool) "different seeds differ" true (draw 9 <> draw 10)

let test_step () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.at sim 1 (fun () -> incr count);
  Sim.at sim 2 (fun () -> incr count);
  Sim.run ~until:1 sim;
  Alcotest.(check int) "one event" 1 !count;
  Alcotest.(check int) "one left" 1 (Sim.pending sim);
  Sim.run ~until:2 sim;
  Alcotest.(check int) "both events" 2 !count;
  Alcotest.(check int) "none left" 0 (Sim.pending sim)

let test_cancel_heavy_pending_bounded () =
  (* per-ACK-style timer churn: without lazy deletion the heap would hold
     every cancelled entry until its (far-future) fire time *)
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 1_000 do
    let tm = Sim.timer_at sim (1_000_000 + i) (fun () -> incr fired) in
    if i mod 100 <> 0 then Sim.cancel tm
  done;
  Alcotest.(check bool)
    (Printf.sprintf "pending %d stays O(live=10)" (Sim.pending sim))
    true
    (Sim.pending sim < 100);
  Sim.run sim;
  let st = Sim.stats sim in
  Alcotest.(check int) "only live timers fired" 10 !fired;
  Alcotest.(check int) "executed counts live only" 10 st.Sim.executed;
  Alcotest.(check bool) "compactions happened" true (st.Sim.rebuilds > 0);
  Alcotest.(check bool) "heap peak bounded" true (st.Sim.heap_peak < 120)

let test_cancelled_entry_skipped_at_pop () =
  (* few enough cancellations that no compaction triggers: the dead entry
     must be skipped at pop, advance the clock, and be counted as
     cancelled_skipped rather than executed *)
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.timer_at sim 10 (fun () -> log := 1 :: !log));
  let t2 = Sim.timer_at sim 20 (fun () -> log := 2 :: !log) in
  Sim.at sim 30 (fun () -> log := 3 :: !log);
  Sim.at sim 40 (fun () -> log := 4 :: !log);
  Sim.cancel t2;
  Sim.run sim;
  Alcotest.(check (list int)) "cancelled handler skipped" [ 1; 3; 4 ]
    (List.rev !log);
  let st = Sim.stats sim in
  Alcotest.(check int) "executed" 3 st.Sim.executed;
  Alcotest.(check int) "cancelled_skipped" 1 st.Sim.cancelled_skipped;
  Alcotest.(check int) "heap peak saw all four" 4 st.Sim.heap_peak

let test_cascade () =
  (* events scheduling events: a chain of 1000 *)
  let sim = Sim.create () in
  let count = ref 0 in
  let rec chain () =
    incr count;
    if !count < 1000 then Sim.after sim 1 chain
  in
  Sim.at sim 0 chain;
  Sim.run sim;
  Alcotest.(check int) "chain length" 1000 !count;
  Alcotest.(check int) "clock" 999 (Sim.now sim)

let test_until_before_now_rejected () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim (Time.ms 10) (fun () -> log := 10 :: !log);
  Sim.at sim (Time.ms 20) (fun () -> log := 20 :: !log);
  Sim.run ~until:(Time.ms 15) sim;
  Alcotest.check_raises "until before now"
    (Invalid_argument "Sim.run: until 5.000ms is before now 15.000ms")
    (fun () -> Sim.run ~until:(Time.ms 5) sim);
  Alcotest.(check int) "clock not rewound" (Time.ms 15) (Sim.now sim);
  Alcotest.check_raises "past time still rejected"
    (Invalid_argument "Sim: scheduling at 6.000ms before now 15.000ms")
    (fun () -> Sim.at sim (Time.ms 6) ignore);
  Sim.run sim;
  Alcotest.(check (list int)) "order kept" [ 10; 20 ] (List.rev !log)

let test_step_counts_total () =
  let sim = Sim.create () in
  Sim.at sim 1 ignore;
  let before = Sim.total_events_executed () in
  Sim.run ~until:1 sim;
  Alcotest.(check int) "process-wide delta" 1
    (Sim.total_events_executed () - before)

(* ---- FIFO lanes ---- *)

let shared_delays = [| 1; 3; 4; 7 |]

(* A self-expanding random schedule: each fired event logs (now, id) and
   schedules one or two more, on a shared lane, on the private lane (at
   explicit times, often equal to the last one), as a closure event or
   as a timer, and sometimes cancels an armed timer. With [lanes:false]
   the lane events go through [after]/[at] instead. Every random draw
   happens in firing order, so both runs make the same draws only if
   they fire in the same order. [initial] events are scheduled before
   the run. *)
let random_schedule ?(initial = 20) ~lanes seed =
  let sim = Sim.create () in
  let rng = Random.State.make [| seed |] in
  let log = ref [] in
  let next_id = ref 0 in
  let budget = ref 3_000 in
  let shared = Array.map (Sim.lane sim) shared_delays in
  let priv = Sim.private_lane sim in
  let priv_last = ref 0 in
  let timers = Array.make 8 None in
  let rec fire id () =
    log := (Sim.now sim, id) :: !log;
    for _ = 0 to Random.State.int rng 2 do
      if !budget > 0 then begin
        decr budget;
        schedule ()
      end
    done;
    match timers.(Random.State.int rng 8) with
    | Some tm when Random.State.bool rng -> Sim.cancel tm
    | _ -> ()
  and schedule () =
    let id = !next_id in
    incr next_id;
    match Random.State.int rng 4 with
    | 0 ->
      let d = Random.State.int rng (Array.length shared_delays) in
      if lanes then Sim.lane_after shared.(d) (Sim.handler sim (fire id))
      else Sim.after sim shared_delays.(d) (fire id)
    | 1 ->
      let time = max !priv_last (Sim.now sim + Random.State.int rng 6) in
      priv_last := time;
      if lanes then Sim.lane_at priv time (Sim.handler sim (fire id))
      else Sim.at sim time (fire id)
    | 2 -> Sim.after sim (Random.State.int rng 8) (fire id)
    | _ ->
      timers.(Random.State.int rng 8) <-
        Some (Sim.timer_after sim (Random.State.int rng 10) (fire id))
  in
  for _ = 1 to initial do
    schedule ()
  done;
  Sim.run sim;
  (List.rev !log, Sim.stats sim)

let test_lanes_match_closures () =
  List.iter
    (fun seed ->
      let laned, st = random_schedule ~lanes:true seed in
      let plain, st' = random_schedule ~lanes:false seed in
      let ties =
        let rec count acc = function
          | (a, _) :: ((b, _) :: _ as rest) ->
            count (if a = b then acc + 1 else acc) rest
          | _ -> acc
        in
        count 0 laned
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %d events, %d equal-time ties" seed
           (List.length laned) ties)
        true
        (List.length laned > 1_000 && ties > 100);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "seed %d: same (time, id) order" seed)
        plain laned;
      (* cancelled_skipped may differ: compaction runs at other heap
         lengths, and a compacted dead timer is never popped *)
      Alcotest.(check int) "same executed" st'.Sim.executed st.Sim.executed;
      Alcotest.(check bool) "smaller heap" true
        (st.Sim.heap_peak < st'.Sim.heap_peak))
    [ 1; 2; 3; 4; 5 ]

(* A burst of 700 events scheduled on a fresh sim: the closures-only
   run holds more than 256 at once, so the heap's slot table grows past
   256 cells (with the static dummy, without a forced minor collection)
   and more than 256 fired records are released while the free list
   keeps 256. Both runs must fire in the same order, and a second closures-only run on another
   fresh sim must give the same log and the same stats. *)
let test_tables_grow_past_256 () =
  List.iter
    (fun seed ->
      let laned, st = random_schedule ~initial:700 ~lanes:true seed in
      let plain, st' = random_schedule ~initial:700 ~lanes:false seed in
      let again, st'' = random_schedule ~initial:700 ~lanes:false seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: heap peak %d > 256" seed st'.Sim.heap_peak)
        true (st'.Sim.heap_peak > 256);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "seed %d: same (time, id) order" seed)
        plain laned;
      Alcotest.(check int) "same executed" st'.Sim.executed st.Sim.executed;
      Alcotest.(check (list (pair int int))) "repeatable" plain again;
      Alcotest.(check (list int))
        "same stats"
        [
          st'.Sim.executed;
          st'.Sim.cancelled_skipped;
          st'.Sim.heap_peak;
          st'.Sim.rebuilds;
        ]
        [
          st''.Sim.executed;
          st''.Sim.cancelled_skipped;
          st''.Sim.heap_peak;
          st''.Sim.rebuilds;
        ])
    [ 1; 2; 3 ]

(* A closed sim drops what is pending unrun and refuses to run or take
   anything new; its counters stay readable. *)
let test_closed_refuses () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let bump () = incr fired in
  Sim.at sim 5 bump;
  Sim.run ~until:5 sim;
  Sim.at sim 10 bump;
  let tm = Sim.timer_at sim 20 bump in
  let ln = Sim.lane sim 3 in
  let h = Sim.handler sim bump in
  Sim.lane_after ln h;
  Sim.lane_after ln h;
  let priv = Sim.private_lane sim in
  Sim.lane_at priv 30 h;
  Alcotest.(check int) "pending before" 5 (Sim.pending sim);
  Sim.close sim;
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim);
  Alcotest.(check bool) "timer inactive" false (Sim.timer_active tm);
  Sim.cancel tm;
  Alcotest.(check int) "executed still read" 1 (Sim.events_executed sim);
  let refused name f =
    Alcotest.(check bool) name true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  refused "run" (fun () -> Sim.run sim);
  refused "at" (fun () -> Sim.at sim 50 bump);
  refused "after" (fun () -> Sim.after sim 1 bump);
  refused "timer_at" (fun () -> ignore (Sim.timer_at sim 50 bump));
  refused "lane_after" (fun () -> Sim.lane_after ln h);
  refused "lane_at" (fun () -> Sim.lane_at priv 60 h);
  refused "handler" (fun () -> ignore (Sim.handler sim bump));
  Sim.close sim;
  Alcotest.(check int) "nothing ran" 1 !fired

let test_lane_backlog_off_heap () =
  let sim = Sim.create () in
  let ln = Sim.lane sim 10 in
  let fired = ref [] in
  let n = ref 0 in
  let h =
    Sim.handler sim (fun () ->
        fired := (Sim.now sim, !n) :: !fired;
        incr n)
  in
  for _ = 1 to 1_000 do
    Sim.lane_after ln h
  done;
  Alcotest.(check int) "pending counts the backlog" 1_000 (Sim.pending sim);
  Alcotest.(check int) "one heap entry" 1 (Sim.stats sim).Sim.heap_peak;
  Alcotest.(check bool)
    "same lane for the same delay" true
    (Sim.lane sim 10 == ln);
  Sim.run sim;
  Alcotest.(check int) "all fired" 1_000 (Sim.events_executed sim);
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim);
  Alcotest.(check int) "heap peak" 1 (Sim.stats sim).Sim.heap_peak;
  Alcotest.(check (list (pair int int)))
    "FIFO at equal times"
    (List.init 1_000 (fun i -> (10, i)))
    (List.rev !fired)

let test_lane_order_enforced () =
  let sim = Sim.create () in
  let ln = Sim.private_lane sim in
  let h = Sim.handler sim ignore in
  Sim.lane_at ln 20 h;
  Sim.lane_at ln 20 h;
  Alcotest.check_raises "earlier than the last push"
    (Invalid_argument "Sim.lane_at: 10ns breaks lane order (last push 20ns)")
    (fun () -> Sim.lane_at ln 10 h);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.lane: negative delay -1ns") (fun () ->
      ignore (Sim.lane sim (-1)));
  Alcotest.check_raises "no handler registered"
    (Failure "Sim: lane event with no handler registered") (fun () ->
      Sim.lane_at ln 30 Sim.no_handler;
      Sim.run sim);
  Alcotest.(check int) "the rejected push was not queued" 3
    (Sim.events_executed sim);
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial;
    Alcotest.test_case "run order" `Quick test_run_order;
    Alcotest.test_case "after is relative" `Quick test_after;
    Alcotest.test_case "run until" `Quick test_until;
    Alcotest.test_case "until is inclusive" `Quick test_until_inclusive;
    Alcotest.test_case "past scheduling rejected" `Quick
      test_past_scheduling_rejected;
    Alcotest.test_case "FIFO at same time" `Quick test_same_time_fifo;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
    Alcotest.test_case "timer fires once" `Quick test_timer_fires;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "single step" `Quick test_step;
    Alcotest.test_case "cancel-heavy pending stays bounded" `Quick
      test_cancel_heavy_pending_bounded;
    Alcotest.test_case "cancelled entry skipped at pop" `Quick
      test_cancelled_entry_skipped_at_pop;
    Alcotest.test_case "event cascade" `Quick test_cascade;
    Alcotest.test_case "run until before now rejected" `Quick
      test_until_before_now_rejected;
    Alcotest.test_case "step counts process-wide" `Quick
      test_step_counts_total;
    Alcotest.test_case "lanes fire as closures would" `Quick
      test_lanes_match_closures;
    Alcotest.test_case "lane backlog stays off the heap" `Quick
      test_lane_backlog_off_heap;
    Alcotest.test_case "lane order enforced" `Quick test_lane_order_enforced;
    Alcotest.test_case "tables grow past 256 as closures would" `Quick
      test_tables_grow_past_256;
    Alcotest.test_case "closed sim refuses to run" `Quick test_closed_refuses;
  ]
