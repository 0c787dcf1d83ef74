(* Perf benchmark: a tracked events/sec baseline over pinned scenarios.

   Unlike the figure/table benches (cached, forked across workers), perf
   measurement must run in-process and uncached: each pinned scenario is
   executed directly with its stdout captured, and we record wall time,
   simulation events executed (process-wide counter delta), the event
   heap's high-water mark and major-heap words allocated. Results land in
   the --out file (the gitignored perf.json by default); the committed
   BENCH_PR<n>.json baselines give later changes a perf trajectory to
   compare against, and [run] refuses to write over one of them. The
   numbers are machine-dependent, so CI only checks the file is produced
   and gates on a large events/s drop — regressions in *behaviour* are
   caught byte-exactly, regressions in *speed* by comparing trajectories
   across commits on like hardware.

   Schema (one object per pinned scenario):
     {scenario, events, wall_s, events_per_s, heap_peak, major_words} *)

module E = Xmp_experiments
module Runner = Xmp_runner.Runner
module Scenario = Xmp_runner.Scenario
module Sim = Xmp_engine.Sim

type result = {
  label : string;
  events : int;
  wall_s : float;
  events_per_s : float;
  heap_peak : int;
  major_words : float;
}

(* The pinned set exercises the hot-path regimes: fig4 (testbed
   multipath shifting, timer-churn heavy), fig9 (fat-tree incast job
   completion, burst heavy), table1 (full fat-tree sweep at quick
   scale, events/sec bound) and wl.websearch (open-loop sharded k=8
   workload, flow-churn plus portal-mail heavy) and wan.bdp (bridged
   two-DC WAN, high-BDP trunk with ms-scale timers). [--quick] drops
   everything to quick scale for CI smoke runs. *)
let pinned ~quick =
  if quick then
    [
      ("fig4@quick", "fig4", E.Scenarios.quick);
      ("fig9@quick", "fig9", E.Scenarios.quick);
      ("table1@quick", "table1", E.Scenarios.quick);
      ("wl.websearch@quick", "wl.websearch.k8", E.Scenarios.quick);
      ("wan.bdp@quick", "wan.bdp", E.Scenarios.quick);
    ]
  else
    [
      ("fig4@default", "fig4", E.Scenarios.default);
      ("fig9@default", "fig9", E.Scenarios.default);
      ("table1@quick", "table1", E.Scenarios.quick);
      ("wl.websearch@quick", "wl.websearch.k8", E.Scenarios.quick);
      ("wan.bdp@quick", "wan.bdp", E.Scenarios.quick);
    ]

let resolve (label, name, cfg) =
  match E.Scenarios.select cfg [ name ] with
  | Ok [ s ] -> (label, s)
  | Ok _ | Error _ -> failwith ("bench perf: unknown pinned scenario " ^ name)

let measure (label, (s : Scenario.t)) =
  let ev0 = Sim.total_events_executed () in
  Sim.reset_global_heap_peak ();
  let g0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = Unix.gettimeofday () in
  let (_ : string) = Runner.capture s.Scenario.run in
  let wall_s = Unix.gettimeofday () -. t0 in
  let events = Sim.total_events_executed () - ev0 in
  {
    label;
    events;
    wall_s;
    events_per_s = (if wall_s > 0. then float_of_int events /. wall_s else 0.);
    heap_peak = Sim.global_heap_peak ();
    major_words = (Gc.quick_stat ()).Gc.major_words -. g0;
  }

let json_of_result r =
  Printf.sprintf
    "  {\"scenario\": %S, \"events\": %d, \"wall_s\": %.6f, \
     \"events_per_s\": %.1f, \"heap_peak\": %d, \"major_words\": %.0f}"
    r.label r.events r.wall_s r.events_per_s r.heap_peak r.major_words

let write_json ~path results =
  let oc = open_out path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.map json_of_result results));
  output_string oc "\n]\n";
  close_out oc

(* ----- baseline comparison -----

   Reads back the schema [write_json] emits (one object per line) with a
   string scanner rather than a JSON dependency: the two fields we gate
   on are ["scenario"] and ["events_per_s"]. Unknown lines are skipped,
   so the reader accepts any past or future superset of the schema. *)

let find_sub line pat =
  let n = String.length line and m = String.length pat in
  let rec scan i =
    if i + m > n then None
    else if String.sub line i m = pat then Some (i + m)
    else scan (i + 1)
  in
  scan 0

let parse_baseline_line line =
  match find_sub line "\"scenario\": \"" with
  | None -> None
  | Some i -> (
    match String.index_from_opt line i '"' with
    | None -> None
    | Some j -> (
      let label = String.sub line i (j - i) in
      match find_sub line "\"events_per_s\": " with
      | None -> None
      | Some k ->
        let l = ref k in
        let num c =
          (c >= '0' && c <= '9')
          || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E'
        in
        while !l < String.length line && num line.[!l] do
          incr l
        done;
        Option.map
          (fun v -> (label, v))
          (float_of_string_opt (String.sub line k (!l - k)))))

let load_baseline path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       match parse_baseline_line (input_line ic) with
       | Some e -> entries := e :: !entries
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* an events/s drop beyond this fraction on any shared label fails the
   run (and with it CI's perf-smoke job) *)
let regression_tolerance = 0.15

let compare_against ~baseline results =
  match load_baseline baseline with
  | exception Sys_error msg ->
    Printf.printf "perf compare: cannot read baseline: %s\n" msg;
    false
  | [] ->
    Printf.printf "perf compare: no perf entries in %s\n" baseline;
    false
  | base ->
    let shared =
      List.filter_map
        (fun r ->
          Option.map (fun b -> (r, b)) (List.assoc_opt r.label base))
        results
    in
    if shared = [] then begin
      Printf.printf
        "perf compare: no scenario labels shared with %s (baseline has: %s)\n"
        baseline
        (String.concat ", " (List.map fst base));
      false
    end
    else
      List.fold_left
        (fun ok (r, base_eps) ->
          let ratio =
            if base_eps > 0. then r.events_per_s /. base_eps else 1.
          in
          let fail = ratio < 1. -. regression_tolerance in
          Printf.printf "perf compare: %-16s %14.1f vs %14.1f ev/s (%+.1f%%)%s\n"
            r.label r.events_per_s base_eps
            ((ratio -. 1.) *. 100.)
            (if fail then "  REGRESSION" else "");
          ok && not fail)
        true shared

(* BENCH_PR<n>.json files are committed history, never an output. *)
let is_committed_baseline path =
  let base = Filename.basename path in
  String.starts_with ~prefix:"BENCH_PR" base && Filename.check_suffix base ".json"

let run ~quick ~out ?compare () =
  if is_committed_baseline out && Sys.file_exists out then begin
    Printf.eprintf
      "bench perf: refusing to overwrite the committed baseline %s; pass \
       --out with a new path\n"
      out;
    false
  end
  else begin
    let scenarios = List.map resolve (pinned ~quick) in
    E.Render.heading "Perf benchmark (pinned scenarios, in-process, uncached)";
    Printf.printf "%-16s %12s %9s %14s %10s %13s\n" "scenario" "events"
      "wall_s" "events/s" "heap_peak" "major_words";
    let results =
      List.map
        (fun sc ->
          let r = measure sc in
          Printf.printf "%-16s %12d %9.3f %14.1f %10d %13.0f\n" r.label
            r.events r.wall_s r.events_per_s r.heap_peak r.major_words;
          r)
        scenarios
    in
    write_json ~path:out results;
    Printf.printf "wrote %s\n" out;
    match compare with
    | None -> true
    | Some baseline -> compare_against ~baseline results
  end
