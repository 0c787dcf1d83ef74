(* Figure and table runner: regenerates every table and figure of the
   paper's evaluation (Figures 1, 4, 6, 7, 8, 9, 10, 11; Tables 1, 2, 3),
   plus the ablation, fault, workload and WAN scenarios.

   Every experiment is a registered Xmp_experiments.Scenarios scenario:
   an independent seeded simulation with a stable content digest. The
   runner executes the selected set across --jobs worker processes and
   caches each scenario's rendered output under _xmp_cache/<digest>, so
   re-runs and partial sweeps skip already-computed scenarios. Scenario
   output goes to stdout in deterministic (registration) order whatever
   the job count; progress and cache statistics go to stderr.

   Usage:
     dune exec bench/main.exe                 # everything (default scale)
     dune exec bench/main.exe -- table1 fig9  # a subset
     dune exec bench/main.exe -- --quick      # fast sanity pass
     dune exec bench/main.exe -- --quick --jobs 4   # parallel workers
     dune exec bench/main.exe -- --no-cache fig7    # force re-simulation
     dune exec bench/main.exe -- --paper-scale table1   # k=8 fat tree

   Timing lives in xmpbench (python3 xmpbench/run.py --workload W), the
   repo's one benchmark; the perf.budget test suite gates its event,
   heap and allocation counts. *)

module E = Xmp_experiments
module Runner = Xmp_runner.Runner

type mode = Default | Quick | Paper

let mode = ref Default

let config () =
  match !mode with
  | Default -> E.Scenarios.default
  | Quick -> E.Scenarios.quick
  | Paper -> E.Scenarios.paper

(* ----- argument parsing and dispatch ----- *)

let default_set =
  [
    "fig1"; "fig4"; "fig6"; "fig7"; "table1"; "fig8"; "fig9"; "fig10";
    "fig11"; "table2"; "table3"; "ablations";
  ]

let usage () =
  print_endline
    "usage: main.exe [--quick|--paper-scale] [--jobs N] [--no-cache] \
     [experiment ...]\noptions:";
  print_endline
    "  --jobs N     run scenarios across N worker processes (default 1)";
  print_endline
    "  --no-cache   ignore and do not write _xmp_cache/ result entries";
  print_endline "experiments:";
  List.iter
    (fun s ->
      Printf.printf "  %-22s %s\n" s.Xmp_runner.Scenario.name
        s.Xmp_runner.Scenario.descr)
    (E.Scenarios.all E.Scenarios.default);
  Printf.printf "  %-22s %s\n" "ablations" "every ablations.* sweep"

let () =
  (* The simulator's live heap is small relative to its allocation rate,
     so the default space_overhead (120) keeps the major GC marking
     nearly continuously. Trading idle heap headroom for fewer slices is
     worth ~25% wall time on the packet hot path and changes no output
     byte. Applied here (not in the library) so embedders keep their own
     policy. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 200 };
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = ref [] in
  let jobs = ref 1 in
  let cache = ref (Runner.Cache_dir Xmp_runner.Cache.default_dir) in
  let bad = ref false in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      mode := Quick;
      parse rest
    | "--paper-scale" :: rest ->
      mode := Paper;
      parse rest
    | "--no-cache" :: rest ->
      cache := Runner.No_cache;
      parse rest
    | ("--jobs" | "-j") :: n :: rest when int_of_string_opt n <> None ->
      jobs := int_of_string n;
      parse rest
    | ("--jobs" | "-j") :: _ ->
      prerr_endline "--jobs needs an integer argument";
      bad := true
    | ("--help" | "-h") :: _ ->
      usage ();
      exit 0
    | id :: rest ->
      selected := id :: !selected;
      parse rest
  in
  parse args;
  if !bad then begin
    usage ();
    exit 2
  end;
  let requested = if !selected = [] then default_set else List.rev !selected in
  match E.Scenarios.select (config ()) requested with
  | Error unknown ->
    Printf.eprintf "unknown experiment: %s\n" unknown;
    usage ();
    exit 2
  | Ok scenarios ->
    ignore (Runner.run_and_print ~jobs:!jobs ~cache:!cache scenarios)
