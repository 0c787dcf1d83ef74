(* xmp-sim: command-line front end for the XMP reproduction.

   Subcommands mirror the paper's experiments:
     xmp_sim fig1|fig4|fig6|fig7      — time-series testbed experiments
     xmp_sim matrix                   — fat-tree goodput matrix (Table 1)
     xmp_sim eval                     — one (scheme, pattern) run in detail
     xmp_sim sweep                    — scheme×pattern matrix through the
                                        parallel, cached scenario runner
     xmp_sim trace                    — one instrumented run, flight
                                        recording exported as CSV/JSONL
     xmp_sim faults                   — fat-tree run under an injected
                                        fault schedule (--fault/--loss/
                                        --fail-link also work on the
                                        figure and trace subcommands)
     xmp_sim coexist                  — Table 2
     xmp_sim ablation                 — parameter sweeps *)

open Cmdliner
module E = Xmp_experiments
module Runner = Xmp_runner.Runner
module Time = Xmp_engine.Time
module Scheme = Xmp_workload.Scheme
module Fault_spec = Xmp_engine.Fault_spec

(* ----- checked numbers: a malformed value is a parse error (exit 124,
   naming the option), never an exception halfway into a run ----- *)

let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let is_even_arity k = k >= 2 && k mod 2 = 0

let is_finite_positive x = Float.is_finite x && x > 0.

let even_arity = checked Arg.int ~expected:"an even arity >= 2" is_even_arity

let positive_int =
  checked Arg.int ~expected:"a positive integer" (fun n -> n >= 1)

let finite_positive =
  checked Arg.float ~expected:"a finite positive number" is_finite_positive

let finite_nonneg =
  checked Arg.float ~expected:"a finite non-negative number" (fun x ->
      Float.is_finite x && x >= 0.)

let beta_divisor = checked Arg.int ~expected:"an integer >= 2" (fun b -> b >= 2)

let fraction =
  checked Arg.float ~expected:"a fraction in [0, 1]" (fun x ->
      x >= 0. && x <= 1.)

(* ----- shared options ----- *)

let scale_t =
  let doc =
    "Time-scale factor applied to the paper's schedules (1.0 = the paper's \
     wall-clock timeline)."
  in
  Arg.(value & opt finite_positive 0.2 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let beta_t =
  let doc = "XMP window-reduction divisor (paper default 4)." in
  Arg.(value & opt beta_divisor 4 & info [ "beta" ] ~docv:"BETA" ~doc)

let k_arity_t =
  let doc = "Fat-tree arity $(docv) (even; 4 => 16 hosts, 8 => 128)." in
  Arg.(value & opt even_arity 4 & info [ "k" ] ~docv:"K" ~doc)

let horizon_t =
  let doc = "Simulated horizon in seconds for fat-tree runs." in
  Arg.(
    value & opt finite_positive 2.0 & info [ "horizon" ] ~docv:"SECONDS" ~doc)

let seed_t =
  let doc = "Deterministic random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let marking_t =
  let doc = "Switch marking threshold K in packets." in
  Arg.(value & opt int 10 & info [ "mark" ] ~docv:"PKTS" ~doc)

let queue_t =
  let doc = "Switch queue capacity in packets." in
  Arg.(value & opt positive_int 100 & info [ "queue" ] ~docv:"PKTS" ~doc)

let sack_t =
  let doc =
    "Enable SACK-based loss recovery on every flow (default: off, matching \
     the paper's RTO-dominated baselines)."
  in
  Arg.(value & flag & info [ "sack" ] ~doc)

let scheme_conv =
  let parse s =
    match Scheme.of_name s with
    | Some scheme -> Ok scheme
    | None ->
      Error (`Msg (Printf.sprintf "unknown scheme %S (try XMP-2, LIA-4, DCTCP, TCP, OLIA-2, BALIA-2, VENO-2, AMP-2)" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Scheme.name s))

let scheme_t =
  let doc = "Transfer scheme for large flows." in
  Arg.(value & opt scheme_conv (Scheme.xmp 2) & info [ "scheme" ] ~docv:"SCHEME" ~doc)

let pattern_conv =
  let parse = function
    | "permutation" -> Ok E.Fatree_eval.Permutation
    | "random" -> Ok E.Fatree_eval.Random
    | "incast" -> Ok E.Fatree_eval.Incast
    | s -> Error (`Msg (Printf.sprintf "unknown pattern %S" s))
  in
  let print fmt p =
    Format.pp_print_string fmt
      (String.lowercase_ascii (E.Fatree_eval.pattern_name p))
  in
  Arg.conv (parse, print)

let pattern_t =
  let doc = "Traffic pattern: permutation, random or incast." in
  Arg.(
    value
    & opt pattern_conv E.Fatree_eval.Permutation
    & info [ "pattern" ] ~docv:"PATTERN" ~doc)

(* ----- fault-injection options (shared by the figure, trace and faults
   subcommands) ----- *)

let fault_conv =
  let parse s =
    match Fault_spec.spec_of_string s with
    | spec -> Ok spec
    | exception Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun fmt s -> Format.pp_print_string fmt (Fault_spec.spec_to_string s))

let fault_t =
  let doc =
    "Inject a fault (repeatable). Canonical forms: $(b,down@T@TARGET), \
     $(b,up@T@TARGET), $(b,loss@T..T@TARGET@bern=P[@any|data|ack]) or \
     $(b,...@ge=PB,PE,LG,LB[@...]), $(b,blackout@T..T@TARGET), \
     $(b,pause@T..T@host=ID). TARGET is $(b,all), $(b,link=NAME) or \
     $(b,tag=NAME); times are integer ns, $(b,1.5s), $(b,250ms), $(b,40us) \
     or $(b,inf)."
  in
  Arg.(value & opt_all fault_conv [] & info [ "fault" ] ~docv:"SPEC" ~doc)

let fail_link_t =
  let doc =
    "Fail link $(b,NAME) — and, for $(b,A->B) names, its reverse direction \
     — at time $(b,T), restoring it at $(b,T2) when given."
  in
  Arg.(value & opt_all string [] & info [ "fail-link" ] ~docv:"NAME@T[:T2]" ~doc)

let loss_t =
  let doc =
    "Bernoulli drop probability applied to every packet of the \
     $(b,--loss-on) target for the whole run."
  in
  Arg.(value & opt (some float) None & info [ "loss" ] ~docv:"P" ~doc)

let loss_on_t =
  let doc = "Target of $(b,--loss): $(b,all), $(b,link=NAME) or $(b,tag=NAME)." in
  Arg.(value & opt string "all" & info [ "loss-on" ] ~docv:"TARGET" ~doc)

let loss_filter_t =
  let doc = "Packets $(b,--loss) applies to: $(b,any), $(b,data) or $(b,ack)." in
  Arg.(
    value
    & opt (enum [ ("any", "any"); ("data", "data"); ("ack", "ack") ]) "any"
    & info [ "loss-filter" ] ~docv:"KIND" ~doc)

let fault_seed_t =
  let doc = "Seed of the fault schedule's own random stream." in
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let reverse_link_name name =
  let n = String.length name in
  let rec find i =
    if i + 1 >= n then None
    else if name.[i] = '-' && name.[i + 1] = '>' then Some i
    else find (i + 1)
  in
  Option.map
    (fun i -> String.sub name (i + 2) (n - i - 2) ^ "->" ^ String.sub name 0 i)
    (find 0)

let fail_link_specs s =
  match String.index_opt s '@' with
  | None ->
    invalid_arg (Printf.sprintf "--fail-link %S: expected NAME@T[:T2]" s)
  | Some i ->
    let name = String.sub s 0 i in
    let times = String.sub s (i + 1) (String.length s - i - 1) in
    let down_t, up_t =
      match String.index_opt times ':' with
      | None -> (times, None)
      | Some j ->
        ( String.sub times 0 j,
          Some (String.sub times (j + 1) (String.length times - j - 1)) )
    in
    let names =
      name
      ::
      (match reverse_link_name name with
      | Some r when not (String.equal r name) -> [ r ]
      | Some _ | None -> [])
    in
    List.concat_map
      (fun n ->
        Fault_spec.spec_of_string (Printf.sprintf "down@%s@link=%s" down_t n)
        ::
        (match up_t with
        | None -> []
        | Some t ->
          [ Fault_spec.spec_of_string (Printf.sprintf "up@%s@link=%s" t n) ]))
      names

let build_faults specs fail_links loss loss_on loss_filter seed =
  try
    let loss_specs =
      match loss with
      | None -> []
      | Some p ->
        [
          Fault_spec.spec_of_string
            (Printf.sprintf "loss@0..inf@%s@bern=%g@%s" loss_on p loss_filter);
        ]
    in
    let all = specs @ List.concat_map fail_link_specs fail_links @ loss_specs in
    match all with [] -> Fault_spec.empty | _ -> Fault_spec.create ~seed all
  with Invalid_argument m ->
    prerr_endline ("xmp_sim: " ^ m);
    exit 2

let faults_t =
  Term.(
    const build_faults $ fault_t $ fail_link_t $ loss_t $ loss_on_t
    $ loss_filter_t $ fault_seed_t)

let base_of ?(sack = false) k horizon seed marking queue beta =
  {
    E.Fatree_eval.default_base with
    k;
    horizon = Time.sec horizon;
    seed;
    marking_threshold = marking;
    queue_pkts = queue;
    beta;
    sack;
  }

(* ----- subcommands ----- *)

let fig1_cmd =
  let run scale faults = E.Fig1.run_and_print_all ~scale ~faults () in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Figure 1: DCTCP vs halving-cwnd on one bottleneck")
    Term.(const run $ scale_t $ faults_t)

let fig4_cmd =
  let run scale beta faults =
    E.Render.heading "Figure 4 (single panel)";
    E.Fig4.print (E.Fig4.run ~scale ~faults ~beta ())
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Figure 4: traffic shifting on testbed 3(a)")
    Term.(const run $ scale_t $ beta_t $ faults_t)

let fig6_cmd =
  let run scale beta faults =
    E.Render.heading "Figure 6 (single panel)";
    E.Fig6.print (E.Fig6.run ~scale ~faults ~beta ())
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Figure 6: fairness on testbed 3(b)")
    Term.(const run $ scale_t $ beta_t $ faults_t)

let fig7_cmd =
  let run scale beta mark faults =
    E.Render.heading "Figure 7 (single panel)";
    E.Fig7.print (E.Fig7.run ~scale ~faults ~beta ~k:mark ())
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Figure 7: rate compensation on the ring")
    Term.(const run $ scale_t $ beta_t $ marking_t $ faults_t)

let matrix_cmd =
  let run k horizon seed mark queue beta =
    let base = base_of k horizon seed mark queue beta in
    E.Fatree_eval.print_table1 base;
    E.Fatree_eval.print_table3 base
  in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Tables 1 and 3: the fat-tree goodput matrix")
    Term.(
      const run $ k_arity_t $ horizon_t $ seed_t $ marking_t $ queue_t
      $ beta_t)

let print_eval base scheme pattern =
  let r = E.Fatree_eval.result base scheme pattern in
  let m = r.Xmp_workload.Driver.metrics in
  E.Render.heading
    (Printf.sprintf "%s under %s" (Scheme.name scheme)
       (E.Fatree_eval.pattern_name pattern));
  Printf.printf "large flows recorded: %d\n"
    (Xmp_workload.Metrics.n_completed_flows m);
  Printf.printf "mean goodput: %.1f Mbps\n"
    (Xmp_workload.Metrics.mean_goodput_bps m /. 1e6);
  let jobs = Xmp_workload.Metrics.job_times_ms m in
  if not (Xmp_stats.Distribution.is_empty jobs) then
    Printf.printf "jobs: %d, mean completion %.1f ms, >300ms %.1f%%\n"
      (Xmp_stats.Distribution.count jobs)
      (Xmp_stats.Distribution.mean jobs)
      (100. *. Xmp_workload.Metrics.jobs_over_ms m 300.);
  E.Render.subheading "link utilization by layer";
  E.Render.five_number_table ~value_header:"layer"
    (Xmp_workload.Driver.utilization_by_layer r);
  E.Render.subheading "RTT by locality (ms)";
  E.Render.five_number_table ~value_header:"locality"
    (List.map
       (fun (loc, d) -> (Xmp_net.Topology.locality_name loc, d))
       (Xmp_workload.Metrics.rtts_by_locality m));
  Printf.printf "events executed: %d\n" r.Xmp_workload.Driver.events

let eval_cmd =
  let run k horizon seed mark queue beta sack scheme pattern =
    let base = base_of ~sack k horizon seed mark queue beta in
    print_eval base scheme pattern
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"One fat-tree run in detail")
    Term.(
      const run $ k_arity_t $ horizon_t $ seed_t $ marking_t $ queue_t
      $ beta_t $ sack_t $ scheme_t $ pattern_t)

(* ----- sweep: the scenario runner exposed for user experiments ----- *)

let jobs_t =
  let doc = "Number of worker processes for the scenario runner." in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let no_cache_t =
  let doc = "Ignore and do not write _xmp_cache/ result entries." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

(* Commas separate both list elements and scheme tunables
   ("XMP-2:beta=6,k=10"), so a plain [Arg.list] would cut tunable lists
   apart. Split on commas, then fold bare "key=val" segments back onto
   the scheme they qualify: a new scheme either has no '=' at all or
   carries the "NAME-n:" prefix, while a continued tunable has '=' and
   no ':'. *)
let scheme_list_conv =
  let parse s =
    let segments = String.split_on_char ',' s in
    let continues seg =
      String.contains seg '=' && not (String.contains seg ':')
    in
    let grouped =
      List.fold_left
        (fun acc seg ->
          match acc with
          | prev :: rest when continues seg -> (prev ^ "," ^ seg) :: rest
          | _ -> seg :: acc)
        [] segments
    in
    let rec convert acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        match Arg.conv_parser scheme_conv name with
        | Ok scheme -> convert (scheme :: acc) rest
        | Error _ as e -> e)
    in
    convert [] (List.rev grouped)
  in
  let print fmt schemes =
    Format.pp_print_string fmt
      (String.concat "," (List.map Scheme.name schemes))
  in
  Arg.conv (parse, print)

let schemes_t =
  let doc = "Comma-separated transfer schemes to sweep." in
  Arg.(
    value
    & opt scheme_list_conv
        [ Scheme.dctcp; Scheme.lia 4; Scheme.xmp 2; Scheme.xmp 4 ]
    & info [ "schemes" ] ~docv:"SCHEMES" ~doc)

let patterns_t =
  let doc = "Comma-separated traffic patterns to sweep." in
  Arg.(
    value
    & opt (list pattern_conv)
        [ E.Fatree_eval.Permutation; E.Fatree_eval.Random;
          E.Fatree_eval.Incast ]
    & info [ "patterns" ] ~docv:"PATTERNS" ~doc)

let sweep_cmd =
  let run k horizon seed mark queue beta sack schemes patterns jobs no_cache =
    let base = base_of ~sack k horizon seed mark queue beta in
    let scenarios =
      List.concat_map
        (fun scheme ->
          List.map
            (fun pattern ->
              let pname =
                String.lowercase_ascii (E.Fatree_eval.pattern_name pattern)
              in
              Xmp_runner.Scenario.create
                ~name:
                  (Printf.sprintf "eval:%s/%s" (Scheme.name scheme) pname)
                ~descr:"one (scheme, pattern) fat-tree run in detail"
                ~params:
                  (("scheme", Scheme.name scheme)
                  :: ("pattern", pname)
                  :: E.Scenarios.base_params base)
                (fun () -> print_eval base scheme pattern))
            patterns)
        schemes
    in
    let cache =
      if no_cache then Runner.No_cache
      else Runner.Cache_dir Xmp_runner.Cache.default_dir
    in
    ignore (Runner.run_and_print ~jobs ~cache scenarios)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Scheme-by-pattern evaluation matrix, run across worker processes \
          with digest-keyed result caching")
    Term.(
      const run $ k_arity_t $ horizon_t $ seed_t $ marking_t $ queue_t
      $ beta_t $ sack_t $ schemes_t $ patterns_t $ jobs_t $ no_cache_t)

(* ----- trace: one instrumented experiment, recording exported ----- *)

module Tel = Xmp_telemetry

let experiment_t =
  let doc =
    "Experiment to trace: $(b,fig1), $(b,fig4), $(b,fig6) or $(b,fig7)."
  in
  Arg.(
    value
    & opt (enum [ ("fig1", `Fig1); ("fig4", `Fig4); ("fig6", `Fig6); ("fig7", `Fig7) ]) `Fig4
    & info [ "experiment" ] ~docv:"NAME" ~doc)

let event_kind_conv =
  let parse s =
    if List.mem s Tel.Event.all_kinds then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf "unknown event kind %S (known: %s)" s
              (String.concat ", " Tel.Event.all_kinds)))
  in
  Arg.conv (parse, Format.pp_print_string)

let events_filter_t =
  let doc =
    "Comma-separated event kinds to keep (e.g. $(b,ce-mark,cwnd-change)); \
     default: all."
  in
  Arg.(
    value
    & opt (some (list event_kind_conv)) None
    & info [ "events" ] ~docv:"KINDS" ~doc)

let format_t =
  let doc = "Stdout format when $(b,--out) is absent: $(b,csv) or $(b,jsonl)." in
  Arg.(
    value
    & opt (enum [ ("csv", `Csv); ("jsonl", `Jsonl) ]) `Csv
    & info [ "format" ] ~docv:"FORMAT" ~doc)

let out_t =
  let doc =
    "Write $(docv).csv and $(docv).jsonl (the event recording) plus \
     $(docv).metrics.csv and $(docv).metrics.jsonl (the metrics registry) \
     instead of printing to stdout."
  in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PREFIX" ~doc)

let capacity_t =
  let doc = "Flight-recorder capacity in events (oldest are evicted)." in
  Arg.(
    value & opt positive_int 65536 & info [ "capacity" ] ~docv:"EVENTS" ~doc)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let trace_cmd =
  let run experiment scale beta mark faults events format out capacity =
    let sink = Tel.Sink.create ~recorder_capacity:capacity () in
    (match experiment with
    | `Fig1 ->
      ignore
        (E.Fig1.run ~scale ~telemetry:sink ~faults
           { E.Fig1.dctcp = true; k = mark })
    | `Fig4 -> ignore (E.Fig4.run ~scale ~beta ~telemetry:sink ~faults ())
    | `Fig6 -> ignore (E.Fig6.run ~scale ~beta ~telemetry:sink ~faults ())
    | `Fig7 ->
      ignore (E.Fig7.run ~scale ~beta ~k:mark ~telemetry:sink ~faults ()));
    let recorder = Tel.Sink.recorder sink in
    let registry = Tel.Sink.registry sink in
    let keep =
      Option.map
        (fun kinds ev -> List.mem (Tel.Event.kind ev) kinds)
        events
    in
    let events_csv = Tel.Export.events_csv ?keep recorder in
    let events_jsonl = Tel.Export.events_jsonl ?keep recorder in
    (match out with
    | Some prefix ->
      write_file (prefix ^ ".csv") events_csv;
      write_file (prefix ^ ".jsonl") events_jsonl;
      write_file (prefix ^ ".metrics.csv") (Tel.Export.metrics_csv registry);
      write_file (prefix ^ ".metrics.jsonl")
        (Tel.Export.metrics_jsonl registry);
      Printf.eprintf "[trace] wrote %s.{csv,jsonl,metrics.csv,metrics.jsonl}\n"
        prefix
    | None -> (
      match format with
      | `Csv -> print_string events_csv
      | `Jsonl -> print_string events_jsonl));
    Printf.eprintf
      "[trace] %d events retained (%d recorded, %d evicted), %d metrics\n%!"
      (Tel.Recorder.length recorder)
      (Tel.Recorder.total recorder)
      (Tel.Recorder.dropped recorder)
      (Tel.Registry.cardinal registry)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one experiment with telemetry enabled and export its flight \
          recording (and metrics registry) as CSV / JSONL")
    Term.(
      const run $ experiment_t $ scale_t $ beta_t $ marking_t $ faults_t
      $ events_filter_t $ format_t $ out_t $ capacity_t)

(* ----- faults: one fat-tree run under an injected fault schedule ----- *)

let list_links_t =
  let doc =
    "Print the fat-tree's link names (the $(b,link=NAME) targets) and exit."
  in
  Arg.(value & flag & info [ "list-links" ] ~doc)

let faults_cmd =
  let run k horizon seed mark queue beta sack scheme pattern faults list_links =
    if list_links then begin
      let cluster = Xmp_net.Shard.create ~shards:1 () in
      let disc () =
        Xmp_net.Queue_disc.create
          ~policy:(Xmp_net.Queue_disc.Threshold_mark mark) ~capacity_pkts:queue
      in
      ignore (Xmp_net.Fat_tree.create ~cluster ~k ~disc ());
      List.iter
        (fun l -> print_endline (Xmp_net.Link.name l))
        (Xmp_net.Network.links (Xmp_net.Shard.net cluster 0))
    end
    else
      let base =
        { (base_of ~sack k horizon seed mark queue beta) with
          E.Fatree_eval.faults }
      in
      E.Fatree_eval.print_fault_eval base scheme pattern
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "One fat-tree run under an injected fault schedule, with a \
          telemetry summary (flows, goodput, injected drops, \
          link-down/link-up/injected-drop events)")
    Term.(
      const run $ k_arity_t $ horizon_t $ seed_t $ marking_t $ queue_t
      $ beta_t $ sack_t $ scheme_t $ pattern_t $ faults_t $ list_links_t)

(* ----- workload: open-loop FCT-slowdown runs at paper scale ----- *)

module Open_loop = Xmp_workload.Open_loop
module Flow_size = Xmp_workload.Flow_size

let cdf_conv =
  let parse = function
    | "websearch" -> Ok Flow_size.web_search
    | "datamining" -> Ok Flow_size.data_mining
    | path when Sys.file_exists path -> (
      match Flow_size.of_file path with
      | t -> Ok t
      | exception Invalid_argument m -> Error (`Msg m))
    | s ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown CDF %S (websearch, datamining, or a file of \
               \"size_segments cum_prob\" lines)"
              s))
  in
  Arg.conv (parse, fun fmt t -> Format.pp_print_string fmt (Flow_size.name t))

let cdf_t =
  let doc =
    "Flow-size distribution: $(b,websearch), $(b,datamining) or a file of \
     $(i,size_segments cum_prob) lines."
  in
  Arg.(value & opt cdf_conv Flow_size.web_search & info [ "cdf" ] ~docv:"CDF" ~doc)

let wl_k_t =
  let doc = "Fat-tree arity $(docv) (even; 8 => 128 hosts)." in
  Arg.(value & opt even_arity 8 & info [ "k" ] ~docv:"K" ~doc)

let load_t =
  let doc = "Offered load as a fraction of the host line rate." in
  Arg.(
    value & opt finite_positive 0.4 & info [ "load" ] ~docv:"FRACTION" ~doc)

let size_scale_t =
  let doc =
    "Factor applied to the CDF's sizes (default 1/32, the repo-wide paper \
     scaling)."
  in
  Arg.(
    value
    & opt finite_positive (1. /. 32.)
    & info [ "size-scale" ] ~docv:"FACTOR" ~doc)

let wl_horizon_t =
  let doc = "Arrival horizon in simulated seconds." in
  Arg.(
    value & opt finite_positive 0.1 & info [ "horizon" ] ~docv:"SECONDS" ~doc)

let drain_t =
  let doc = "Extra simulated seconds for in-flight flows to finish." in
  Arg.(value & opt finite_nonneg 0.2 & info [ "drain" ] ~docv:"SECONDS" ~doc)

let flows_t =
  let doc = "Stop generating after $(docv) flows (before the horizon)." in
  Arg.(value & opt (some positive_int) None & info [ "flows" ] ~docv:"N" ~doc)

let domains_t =
  let doc = "Worker domains for the pod-sharded run (never changes results)." in
  Arg.(value & opt positive_int 1 & info [ "domains" ] ~docv:"N" ~doc)

let wl_out_t =
  let doc =
    "Write $(docv).fct.csv (per-bucket slowdown summary) and $(docv).cdf.csv \
     (slowdown CDF points)."
  in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PREFIX" ~doc)

let workload_cmd =
  let run k seed scheme cdf size_scale load horizon drain flows domains mark
      queue beta sack out =
    let sizes =
      if size_scale = 1. then cdf else Flow_size.scaled cdf size_scale
    in
    let config =
      {
        Open_loop.default_config with
        Open_loop.k;
        seed;
        scheme;
        sizes;
        load;
        horizon = Time.sec horizon;
        drain = Time.sec drain;
        max_flows = flows;
        marking_threshold = mark;
        queue_pkts = queue;
        beta;
        sack;
      }
    in
    let r = Open_loop.run ~config ~domains () in
    let m = r.Open_loop.metrics in
    Printf.printf
      "workload %s: k=%d seed=%d load=%.3f cdf=%s mean_size=%.1f segments\n"
      (Scheme.name scheme) k seed load (Flow_size.name sizes)
      (Flow_size.mean_segments sizes);
    Printf.printf
      "flows: %d launched, %d completed, %d truncated (horizon %.3fs + drain %.3fs)\n"
      r.Open_loop.launched r.Open_loop.completed r.Open_loop.truncated horizon
      drain;
    Printf.printf "events executed: %d (portal mail %d)\n" r.Open_loop.events
      r.Open_loop.mail;
    print_string (Xmp_workload.Metrics.fct_summary_csv m);
    match out with
    | Some prefix ->
      write_file (prefix ^ ".fct.csv") (Xmp_workload.Metrics.fct_summary_csv m);
      write_file (prefix ^ ".cdf.csv") (Xmp_workload.Metrics.fct_cdf_csv m);
      Printf.eprintf "[workload] wrote %s.fct.csv and %s.cdf.csv\n" prefix
        prefix
    | None -> ()
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Open-loop workload on the pod-sharded fat tree: Poisson arrivals, \
          empirical flow sizes, FCT-slowdown CDFs")
    Term.(
      const run $ wl_k_t $ seed_t $ scheme_t $ cdf_t $ size_scale_t $ load_t
      $ wl_horizon_t $ drain_t $ flows_t $ domains_t $ marking_t $ queue_t
      $ beta_t $ sack_t $ wl_out_t)

(* ----- wan: open-loop runs on a bridged two-DC WAN topology ----- *)

module Wan = Xmp_net.Wan
module Units = Xmp_net.Units

(* "ft:K" (fat tree) or "ls:LEAVES,SPINES,HOSTS" (leaf-spine) *)
let dc_spec_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "ft"; k ] -> (
      match int_of_string_opt k with
      | Some k when is_even_arity k -> Ok (Wan.Fat_tree_dc { k })
      | _ ->
        Error (`Msg (Printf.sprintf "bad fat-tree arity %S (even, >= 2)" k)))
    | [ "ls"; dims ] -> (
      match
        List.map int_of_string_opt (String.split_on_char ',' dims)
      with
      | [ Some leaves; Some spines; Some hosts_per_leaf ]
        when leaves >= 1 && spines >= 1 && hosts_per_leaf >= 1 ->
        Ok (Wan.Leaf_spine_dc { leaves; spines; hosts_per_leaf })
      | _ -> Error (`Msg (Printf.sprintf "bad leaf-spine dims %S" dims)))
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad DC spec %S (use ft:K or ls:LEAVES,SPINES,HOSTS)" s))
  in
  let print fmt = function
    | Wan.Fat_tree_dc { k } -> Format.fprintf fmt "ft:%d" k
    | Wan.Leaf_spine_dc { leaves; spines; hosts_per_leaf } ->
      Format.fprintf fmt "ls:%d,%d,%d" leaves spines hosts_per_leaf
  in
  Arg.conv (parse, print)

let left_dc_t =
  let doc = "Left data center: $(b,ft:K) or $(b,ls:LEAVES,SPINES,HOSTS)." in
  Arg.(
    value
    & opt dc_spec_conv (Wan.Fat_tree_dc { k = 4 })
    & info [ "left" ] ~docv:"DC" ~doc)

let right_dc_t =
  let doc = "Right data center: $(b,ft:K) or $(b,ls:LEAVES,SPINES,HOSTS)." in
  Arg.(
    value
    & opt dc_spec_conv (Wan.Fat_tree_dc { k = 4 })
    & info [ "right" ] ~docv:"DC" ~doc)

(* DELAY_MS[:RATE_GBPS[:QUEUE_PKTS[:MARK_PKTS]]] — MARK_PKTS of 0 means
   a deep droptail border queue (no marking) *)
let trunk_conv =
  let parse s =
    let fields = String.split_on_char ':' s in
    let bad () =
      Error
        (`Msg
           (Printf.sprintf
              "bad trunk spec %S (use DELAY_MS[:RATE_GBPS[:QUEUE_PKTS[:MARK_PKTS]]])"
              s))
    in
    match fields with
    | delay_ms :: rest -> (
      match float_of_string_opt delay_ms with
      | Some ms when is_finite_positive ms -> (
        let delay = Time.of_float_s (ms /. 1000.) in
        match rest with
        | [] -> Ok (Wan.trunk ~delay ())
        | [ gbps ] -> (
          match float_of_string_opt gbps with
          | Some g when is_finite_positive g ->
            Ok (Wan.trunk ~delay ~rate:(Units.gbps g) ())
          | _ -> bad ())
        | [ gbps; queue ] -> (
          match (float_of_string_opt gbps, int_of_string_opt queue) with
          | Some g, Some q when is_finite_positive g && q >= 1 ->
            Ok (Wan.trunk ~delay ~rate:(Units.gbps g) ~queue_pkts:q ())
          | _ -> bad ())
        | [ gbps; queue; mark ] -> (
          match
            ( float_of_string_opt gbps,
              int_of_string_opt queue,
              int_of_string_opt mark )
          with
          | Some g, Some q, Some 0 when is_finite_positive g && q >= 1 ->
            Ok (Wan.trunk ~delay ~rate:(Units.gbps g) ~queue_pkts:q ())
          | Some g, Some q, Some m
            when is_finite_positive g && q >= 1 && m >= 1 ->
            Ok
              (Wan.trunk ~delay ~rate:(Units.gbps g) ~queue_pkts:q
                 ~marking_threshold:m ())
          | _ -> bad ())
        | _ -> bad ())
      | _ -> bad ())
    | [] -> bad ()
  in
  let print fmt (t : Wan.trunk) =
    Format.fprintf fmt "%g:%g:%d:%d"
      (float_of_int t.Wan.trunk_delay /. 1e6)
      (Units.to_gbps t.Wan.trunk_rate)
      t.Wan.trunk_queue_pkts
      (match t.Wan.trunk_marking_threshold with None -> 0 | Some m -> m)
  in
  Arg.conv (parse, print)

let trunks_t =
  let doc =
    "Border trunk (repeatable): \
     $(b,DELAY_MS[:RATE_GBPS[:QUEUE_PKTS[:MARK_PKTS]]]); $(b,MARK_PKTS) 0 \
     means deep droptail. Default: one 40 ms, 10 Gbps trunk."
  in
  Arg.(value & opt_all trunk_conv [] & info [ "trunk" ] ~docv:"SPEC" ~doc)

let cross_dc_t =
  let doc = "Fraction of arrivals aimed at the other data center." in
  Arg.(value & opt fraction 0.5 & info [ "cross-dc" ] ~docv:"FRACTION" ~doc)

let rto_min_ms_t =
  let doc =
    "RTO floor in milliseconds (default: half the slowest zero-load \
     cross-DC RTT, at least 1 ms)."
  in
  Arg.(
    value
    & opt (some finite_positive) None
    & info [ "rto-min" ] ~docv:"MS" ~doc)

let goodput_csv m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "locality,flows,mean_mbps,p50_mbps,p90_mbps,max_mbps\n";
  List.iter
    (fun (loc, d) ->
      if not (Xmp_stats.Distribution.is_empty d) then
        Buffer.add_string buf
          (Printf.sprintf "%s,%d,%.6g,%.6g,%.6g,%.6g\n"
             (Xmp_net.Topology.locality_name loc)
             (Xmp_stats.Distribution.count d)
             (Xmp_stats.Distribution.mean d /. 1e6)
             (Xmp_stats.Distribution.percentile d 50. /. 1e6)
             (Xmp_stats.Distribution.percentile d 90. /. 1e6)
             (Xmp_stats.Distribution.max d /. 1e6)))
    (Xmp_workload.Metrics.goodputs_by_locality m);
  Buffer.contents buf

let wan_cmd =
  let run left right trunks cross_dc seed scheme cdf size_scale load horizon
      drain flows domains mark queue beta sack rto_min_ms out =
    let trunks = if trunks = [] then [ Wan.trunk () ] else trunks in
    let sizes =
      if size_scale = 1. then cdf else Flow_size.scaled cdf size_scale
    in
    let rto_min =
      match rto_min_ms with
      | Some ms -> Time.of_float_s (ms /. 1000.)
      | None ->
        Stdlib.max (Time.ms 1)
          (Wan.max_rtt_no_queue_of ~left ~right ~trunks / 2)
    in
    let config =
      {
        Open_loop.default_config with
        Open_loop.seed;
        scheme = Scheme.with_rto ~rto_min scheme;
        sizes;
        load;
        horizon = Time.sec horizon;
        drain = Time.sec drain;
        max_flows = flows;
        marking_threshold = mark;
        queue_pkts = queue;
        beta;
        rto_min;
        sack;
        cross_dc;
      }
    in
    let r = Open_loop.run_wan ~config ~domains ~left ~right ~trunks () in
    let m = r.Open_loop.metrics in
    Printf.printf
      "wan %s: %d+%d hosts, %d trunk(s), cross-dc %.3f, rto_min %.1f ms\n"
      (Scheme.name config.Open_loop.scheme)
      (Wan.dc_n_hosts left) (Wan.dc_n_hosts right) (List.length trunks)
      cross_dc
      (float_of_int rto_min /. 1e6);
    Printf.printf
      "flows: %d launched, %d completed, %d truncated (horizon %.3fs + \
       drain %.3fs)\n"
      r.Open_loop.launched r.Open_loop.completed r.Open_loop.truncated horizon
      drain;
    Printf.printf "events executed: %d (portal mail %d)\n" r.Open_loop.events
      r.Open_loop.mail;
    print_string (Xmp_workload.Metrics.fct_summary_csv m);
    match out with
    | Some prefix ->
      write_file (prefix ^ ".fct.csv") (Xmp_workload.Metrics.fct_summary_csv m);
      write_file (prefix ^ ".cdf.csv") (Xmp_workload.Metrics.fct_cdf_csv m);
      write_file (prefix ^ ".goodput.csv") (goodput_csv m);
      Printf.eprintf "[wan] wrote %s.{fct,cdf,goodput}.csv\n" prefix
    | None -> ()
  in
  Cmd.v
    (Cmd.info "wan"
       ~doc:
         "Open-loop workload on a bridged two-DC WAN topology: \
          high-BDP border trunks, a cross-DC traffic fraction, \
          per-topology RTO floors, FCT-slowdown and per-locality \
          goodput CSV export")
    Term.(
      const run $ left_dc_t $ right_dc_t $ trunks_t $ cross_dc_t $ seed_t
      $ scheme_t $ cdf_t $ size_scale_t $ load_t $ wl_horizon_t $ drain_t
      $ flows_t $ domains_t $ marking_t $ queue_t $ beta_t $ sack_t
      $ rto_min_ms_t $ wl_out_t)

let coexist_cmd =
  let run k horizon seed mark beta =
    let base = base_of k horizon seed mark 100 beta in
    E.Coexistence.print_table2 ~base ()
  in
  Cmd.v
    (Cmd.info "coexist" ~doc:"Table 2: XMP coexisting with other schemes")
    Term.(const run $ k_arity_t $ horizon_t $ seed_t $ marking_t $ beta_t)

let ablation_cmd =
  let run k horizon seed scale =
    let base = base_of k horizon seed 10 100 4 in
    E.Ablations.print_beta_sweep ~scale ();
    E.Ablations.print_k_sweep ();
    E.Ablations.print_subflow_sweep ~base ();
    E.Ablations.print_coupling_comparison ~base ()
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Parameter sweeps (beta, K, subflows, coupling)")
    Term.(const run $ k_arity_t $ horizon_t $ seed_t $ scale_t)

let main_cmd =
  let doc = "packet-level reproduction of XMP (CoNEXT 2013)" in
  Cmd.group
    (Cmd.info "xmp_sim" ~version:"1.0.0" ~doc)
    [
      fig1_cmd; fig4_cmd; fig6_cmd; fig7_cmd; matrix_cmd; eval_cmd;
      sweep_cmd; trace_cmd; faults_cmd; workload_cmd; wan_cmd; coexist_cmd;
      ablation_cmd;
    ]

let () =
  (* Simulation allocates fast but retains little; a higher space
     overhead keeps the major GC off the packet hot path (same setting
     as the bench harness — results are byte-identical either way). *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 200 };
  exit (Cmd.eval main_cmd)
