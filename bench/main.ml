(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Figures 1, 4, 6, 7, 8, 9, 10, 11; Tables 1, 2, 3), plus
   ablation benches and micro-benchmarks of the simulator's hot paths.

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
     dune exec bench/main.exe -- micro        # fluid fixed-point micro-bench
     dune exec bench/main.exe -- perf         # perf pass -> perf.json
     dune exec bench/main.exe -- perf --quick --compare BENCH_PR9.json

   The engine, queue and transport hot-path micro-benches live in
   xmpbench (python3 xmpbench/run.py --workload bulk.k4 --trace 1). *)

module E = Xmp_experiments
module Runner = Xmp_runner.Runner

type mode = Default | Quick | Paper

let mode = ref Default

let config () =
  match !mode with
  | Default -> E.Scenarios.default
  | Quick -> E.Scenarios.quick
  | Paper -> E.Scenarios.paper

(* ----- micro-benchmark (Bechamel) -----

   Not a scenario: bechamel measures the host's wall clock, so the
   output is neither deterministic nor cacheable. Only the fluid model
   is measured here; xmpbench reports the simulator's hot paths. *)

let fluid_test =
  Bechamel.Test.make ~name:"fluid trash_fixed_point (3 paths)"
    (Bechamel.Staged.stage (fun () ->
         let path c =
           {
             Xmp_core.Fluid.rtt = 0.0002;
             p_of_rate = (fun x -> Float.min 1. (0.01 +. (x /. c)));
           }
         in
         ignore
           (Xmp_core.Fluid.trash_fixed_point ~beta:4
              ~paths:[ path 50_000.; path 80_000.; path 20_000. ]
              ~iterations:20)))

let micro () =
  E.Render.heading "Micro-benchmark of the fluid model (Bechamel)";
  let benchmark test =
    let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Bechamel.Benchmark.cfg ~limit:200
        ~quota:(Bechamel.Time.second 0.5) ()
    in
    Bechamel.Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Bechamel.Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:Bechamel.Measure.[| run |]
    in
    Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock
      results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-40s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-40s (no estimate)\n" name)
        results)
    [ fluid_test ]

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
  Printf.printf "  %-22s %s\n" "ablations" "every ablations.* sweep";
  Printf.printf "  %-22s %s\n" "micro"
    "fluid fixed-point micro-benchmark (never cached; the simulator's hot \
     paths are in python3 xmpbench/run.py --trace 1)";
  Printf.printf "  %-22s %s\n" "perf"
    "pinned-scenario perf pass -> perf.json (never cached; --out to \
     rename, never onto a committed BENCH_PR*.json; --compare FILE to \
     gate on a committed baseline)"

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
  let perf_out = ref "perf.json" in
  let perf_compare = ref None in
  let bad = ref false in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      mode := Quick;
      parse rest
    | "--out" :: path :: rest ->
      perf_out := path;
      parse rest
    | [ "--out" ] ->
      prerr_endline "--out needs a path argument";
      bad := true
    | "--compare" :: path :: rest ->
      perf_compare := Some path;
      parse rest
    | [ "--compare" ] ->
      prerr_endline "--compare needs a baseline JSON path argument";
      bad := true
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
  let run_micro = List.mem "micro" requested in
  let run_perf = List.mem "perf" requested in
  let scenario_ids =
    List.filter (fun id -> id <> "micro" && id <> "perf") requested
  in
  (match E.Scenarios.select (config ()) scenario_ids with
  | Error unknown ->
    Printf.eprintf "unknown experiment: %s\n" unknown;
    usage ();
    exit 2
  | Ok [] -> ()
  | Ok scenarios ->
    ignore (Runner.run_and_print ~jobs:!jobs ~cache:!cache scenarios));
  if run_micro then micro ();
  if run_perf then begin
    let ok =
      Perf.run ~quick:(!mode = Quick) ~out:!perf_out ?compare:!perf_compare ()
    in
    (* a >15% events/s drop against the baseline is a hard failure *)
    if not ok then exit 1
  end
