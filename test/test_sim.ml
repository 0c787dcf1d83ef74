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
   as a timer, and sometimes cancels an armed timer. The private lane's
   one handler fires the oldest id queued for it. With [lanes:false]
   the lane events go through [after]/[at] instead. Every random draw
   happens in firing order, so both runs make the same draws only if
   they fire in the same order. [initial] events are scheduled before
   the run.

   [kinds] is drawn from uniformly for each new event: 0 a shared lane,
   1 the private lane, 2 a closure, 3 a timer. Without [cancels] no
   armed timer is cancelled. [churn] far-future timers are armed and
   cancelled at once by every fired event, so the heap compacts while
   lane heads are live. The run stops at each of [cutoffs] in turn
   (increasing), where [now], [next_event_time] and [pending] are
   read, and then runs to the end. *)
let even_mix = [| 0; 1; 2; 3 |]

let random_schedule ?(initial = 20) ?(kinds = even_mix) ?(cancels = true)
    ?(churn = 0) ?(cutoffs = []) ~lanes seed =
  let sim = Sim.create () in
  let rng = Random.State.make [| seed |] in
  let log = ref [] in
  let next_id = ref 0 in
  let budget = ref 3_000 in
  let shared = Array.map (Sim.lane sim) shared_delays in
  let priv_ids = Queue.create () in
  let fire_priv = ref ignore in
  let priv = Sim.private_lane sim (Sim.handler sim (fun () -> !fire_priv ())) in
  let priv_last = ref 0 in
  let timers = Array.make 8 None in
  let rec fire id () =
    log := (Sim.now sim, id) :: !log;
    for _ = 1 to churn do
      Sim.cancel (Sim.timer_after sim 1_000_000 ignore)
    done;
    for _ = 0 to Random.State.int rng 2 do
      if !budget > 0 then begin
        decr budget;
        schedule ()
      end
    done;
    if cancels then
      match timers.(Random.State.int rng 8) with
      | Some tm when Random.State.bool rng -> Sim.cancel tm
      | _ -> ()
  and schedule () =
    let id = !next_id in
    incr next_id;
    match kinds.(Random.State.int rng (Array.length kinds)) with
    | 0 ->
      let d = Random.State.int rng (Array.length shared_delays) in
      if lanes then Sim.lane_after shared.(d) (Sim.handler sim (fire id))
      else Sim.after sim shared_delays.(d) (fire id)
    | 1 ->
      let time = max !priv_last (Sim.now sim + Random.State.int rng 6) in
      priv_last := time;
      if lanes then begin
        Queue.push id priv_ids;
        Sim.lane_at priv time
      end
      else Sim.at sim time (fire id)
    | 2 -> Sim.after sim (Random.State.int rng 8) (fire id)
    | _ ->
      timers.(Random.State.int rng 8) <-
        Some (Sim.timer_after sim (Random.State.int rng 10) (fire id))
  in
  (fire_priv := fun () -> fire (Queue.pop priv_ids) ());
  for _ = 1 to initial do
    schedule ()
  done;
  let marks =
    List.map
      (fun until ->
        Sim.run ~until sim;
        (Sim.now sim, Sim.next_event_time sim, Sim.pending sim))
      cutoffs
  in
  Sim.run sim;
  (List.rev !log, Sim.stats sim, marks)

let stats_list (st : Sim.stats) =
  [ st.executed; st.cancelled_skipped; st.heap_peak; st.rebuilds ]

(* A schedule's events fall within its first 100 ns or so, many at
   equal times: a cutoff at every nanosecond up to 120 ns. *)
let cutoffs = List.init 121 Fun.id

(* Each mix runs laned and closures-only, each uncut and stopped at
   [cutoffs]. Laned and closures-only runs must fire in the same
   (time, id) order, and a cut run as its uncut one, with the same
   stats. Cancelled timers stay in the heap until a compaction or their
   pop, and compaction runs at other moments in the two engines, so
   only where nothing is cancelled must both engines read the same
   [now], [next_event_time] and [pending] at every cutoff; with
   cancels, a cutoff that events remain beyond must leave the clock at
   the cutoff and the next event past it. *)
let check_mix ~name ~kinds ~cancels ~churn seed =
  let run ?cutoffs lanes =
    random_schedule ~kinds ~cancels ~churn ?cutoffs ~lanes seed
  in
  let laned, st, _ = run true in
  let plain, st', _ = run false in
  let laned_cut, st_cut, marks = run ~cutoffs true in
  let plain_cut, _, marks' = run ~cutoffs false in
  let ties =
    let rec count acc = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        count (if a = b then acc + 1 else acc) rest
      | _ -> acc
    in
    count 0 laned
  in
  let tag what = Printf.sprintf "%s, seed %d: %s" name seed what in
  Alcotest.(check bool)
    (tag (Printf.sprintf "%d events, %d equal-time ties" (List.length laned) ties))
    true
    (List.length laned > 1_000 && ties > 100);
  Alcotest.(check (list (pair int int))) (tag "same (time, id) order") plain laned;
  Alcotest.(check int) (tag "same executed") st'.Sim.executed st.Sim.executed;
  Alcotest.(check bool) (tag "no larger heap") true
    (st.Sim.heap_peak <= st'.Sim.heap_peak);
  Alcotest.(check (list (pair int int))) (tag "cut laned run") laned laned_cut;
  Alcotest.(check (list (pair int int))) (tag "cut plain run") plain plain_cut;
  Alcotest.(check (list int)) (tag "cut run's stats") (stats_list st)
    (stats_list st_cut);
  if churn > 0 then
    Alcotest.(check bool) (tag "compacted with lanes live") true
      (st.Sim.rebuilds > 0);
  if cancels || churn > 0 then
    List.iter2
      (fun until (now, next, pending) ->
        if pending > 0 && Time.compare next until > 0 then
          Alcotest.(check int) (tag "clock at the cutoff") until now;
        Alcotest.(check bool) (tag "nothing left at the cutoff") true
          (Time.compare next until > 0))
      cutoffs marks
  else
    Alcotest.(check (list (triple int int int)))
      (tag "now, next event and pending at every cutoff")
      marks' marks

let test_lanes_match_closures () =
  List.iter
    (fun seed ->
      check_mix ~name:"even mix" ~kinds:even_mix ~cancels:true ~churn:0 seed;
      check_mix ~name:"even mix, no cancels" ~kinds:even_mix ~cancels:false
        ~churn:0 seed;
      check_mix ~name:"lanes outnumber timers"
        ~kinds:[| 0; 0; 0; 1; 1; 1; 2; 3 |]
        ~cancels:false ~churn:0 seed;
      check_mix ~name:"timers outnumber lanes"
        ~kinds:[| 0; 1; 2; 3; 3; 3; 3; 3 |]
        ~cancels:false ~churn:0 seed;
      check_mix ~name:"timers outnumber lanes, with cancels"
        ~kinds:[| 0; 1; 2; 3; 3; 3; 3; 3 |]
        ~cancels:true ~churn:0 seed;
      check_mix ~name:"cancel churn" ~kinds:even_mix ~cancels:true ~churn:2
        seed;
      (* with the even mix, lane backlogs keep the heap smaller *)
      let _, st, _ = random_schedule ~lanes:true seed in
      let _, st', _ = random_schedule ~lanes:false seed in
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
      let laned, st, _ = random_schedule ~initial:700 ~lanes:true seed in
      let plain, st', _ = random_schedule ~initial:700 ~lanes:false seed in
      let again, st'', _ = random_schedule ~initial:700 ~lanes:false seed in
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
  let priv = Sim.private_lane sim h in
  Sim.lane_at priv 30;
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
  refused "lane_at" (fun () -> Sim.lane_at priv 60);
  refused "private_lane" (fun () -> ignore (Sim.private_lane sim h));
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
  let h = Sim.handler sim ignore in
  let ln = Sim.private_lane sim h in
  Sim.lane_at ln 20;
  Sim.lane_at ln 20;
  Alcotest.check_raises "earlier than the last push"
    (Invalid_argument "Sim.lane_at: 10ns breaks lane order (last push 20ns)")
    (fun () -> Sim.lane_at ln 10);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.lane: negative delay -1ns") (fun () ->
      ignore (Sim.lane sim (-1)));
  Alcotest.check_raises "lane_at on a shared lane"
    (Invalid_argument "Sim.lane_at: shared lane") (fun () ->
      Sim.lane_at (Sim.lane sim 5) 30);
  Alcotest.check_raises "lane_after on a private lane"
    (Invalid_argument "Sim.lane_after: private lane") (fun () ->
      Sim.lane_after ln h);
  Alcotest.check_raises "no handler registered"
    (Failure "Sim: lane event with no handler registered") (fun () ->
      Sim.lane_at (Sim.private_lane sim Sim.no_handler) 30;
      Sim.run sim);
  Alcotest.(check int) "the rejected push was not queued" 3
    (Sim.events_executed sim);
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim)

(* Lane heads sit apart from the timer heap, which still counts them as
   live entries: compaction runs when dead timers outnumber half of all
   live entries, heads included, at the same moments as when the heads
   sat in the timer heap. *)
let test_compaction_counts_lane_heads () =
  let sim = Sim.create () in
  let h = Sim.handler sim ignore in
  for i = 0 to 9 do
    Sim.lane_at (Sim.private_lane sim h) (100 + i)
  done;
  let timers = List.init 10 (fun i -> Sim.timer_at sim (50 + i) ignore) in
  (* 10 heads and 10 timers: the 7th cancel compacts (7 > 13 / 2); with
     the heads left out, the 4th would (4 > 6 / 2) *)
  List.iteri
    (fun i tm ->
      Sim.cancel tm;
      Alcotest.(check int)
        (Printf.sprintf "rebuilds after %d cancels" (i + 1))
        (if i >= 6 then 1 else 0)
        (Sim.stats sim).Sim.rebuilds)
    timers;
  Alcotest.(check int) "three dead timers and ten heads" 13 (Sim.pending sim);
  Sim.run sim;
  let st = Sim.stats sim in
  Alcotest.(check (list int)) "heads fire, dead timers are skipped"
    [ 10; 3 ] [ st.Sim.executed; st.Sim.cancelled_skipped ];
  (* 100 lanes with a head each among 900 timers, all cancelled: every
     head survives the compactions and fires in time order *)
  let sim = Sim.create () in
  let fired = ref [] in
  let cells = ref [] in
  for i = 0 to 999 do
    let time = 1_000 - i in
    if i mod 10 = 0 then
      Sim.lane_at
        (Sim.private_lane sim
           (Sim.handler sim (fun () -> fired := (Sim.now sim, i / 10) :: !fired)))
        time
    else cells := Sim.timer_at sim time ignore :: !cells
  done;
  List.iter Sim.cancel !cells;
  Alcotest.(check bool) "compacted on the way" true
    ((Sim.stats sim).Sim.rebuilds > 0);
  let pending = Sim.pending sim in
  Alcotest.(check bool) "dead timers bounded" true (pending - 100 <= pending / 3);
  Sim.run sim;
  let st = Sim.stats sim in
  Alcotest.(check int) "the 100 heads were the live entries" 100
    (pending - st.Sim.cancelled_skipped);
  Alcotest.(check (list (pair int int)))
    "heads fire in time order"
    (List.init 100 (fun k -> (1_000 - (10 * (99 - k)), 99 - k)))
    (List.rev !fired)

(* A fired head gives way to its lane's next entry, which may sort after
   a timer or closure event; [next_event_time] and [pending] read both
   queues. *)
let test_lane_head_yields () =
  let sim = Sim.create () in
  let log = ref [] in
  let note what () = log := (Sim.now sim, what) :: !log in
  let ln = Sim.private_lane sim (Sim.handler sim (note "lane")) in
  Sim.lane_at ln 10;
  Sim.lane_at ln 30;
  Sim.at sim 20 (note "closure");
  Sim.cancel (Sim.timer_at sim 25 (note "timer"));
  let read () = (Sim.now sim, Sim.next_event_time sim, Sim.pending sim) in
  Alcotest.(check (triple int int int)) "before" (0, 10, 4) (read ());
  Sim.run ~until:10 sim;
  Alcotest.(check (triple int int int)) "after the first head" (10, 20, 3)
    (read ());
  Sim.run ~until:27 sim;
  Alcotest.(check (triple int int int)) "closure run, dead timer skipped"
    (27, 30, 1) (read ());
  Sim.run sim;
  Alcotest.(check (triple int int int)) "drained" (30, Time.infinity, 0)
    (read ());
  Alcotest.(check (list (pair int string)))
    "order"
    [ (10, "lane"); (20, "closure"); (30, "lane") ]
    (List.rev !log)

(* Lane events (one shared lane per time) and closure events, at random
   times, fire in (time, seq) order. *)
let prop_lanes_and_closures_sort =
  QCheck.Test.make ~count:200
    ~name:"lanes and closures sort"
    QCheck.(list (pair bool (int_bound 100)))
    (fun entries ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iteri
        (fun i (laned, t) ->
          let f () = fired := (Sim.now sim, i, laned) :: !fired in
          if laned then Sim.lane_after (Sim.lane sim t) (Sim.handler sim f)
          else Sim.at sim t f)
        entries;
      Sim.run sim;
      List.rev !fired
      = List.sort compare (List.mapi (fun i (laned, t) -> (t, i, laned)) entries)
      && Sim.pending sim = 0)

(* One fixed k=4 Driver run: incast chains over background flows, whose
   RTO timers are armed and cancelled per ACK. Its engine counters are
   those of the engine that kept lane heads in the timer heap, so
   compaction counts the heads as live entries and runs at the same
   moments. *)
let test_driver_stats () =
  let module Driver = Xmp_workload.Driver in
  let r =
    Driver.run
      {
        Driver.default_config with
        horizon = Time.ms 20;
        pattern = Driver.incast_scaled;
      }
  in
  Alcotest.(check (list int))
    "executed, cancelled_skipped, heap_peak, rebuilds"
    [ 188_145; 412; 134; 133 ]
    (stats_list (Sim.stats (Xmp_net.Network.sim r.Driver.net)))

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
    Alcotest.test_case "compaction counts heads" `Quick
      test_compaction_counts_lane_heads;
    Alcotest.test_case "lane head yields to timer" `Quick
      test_lane_head_yields;
    QCheck_alcotest.to_alcotest prop_lanes_and_closures_sort;
    Alcotest.test_case "driver run's engine stats" `Quick test_driver_stats;
  ]
