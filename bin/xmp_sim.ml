(* xmp-sim: command-line front end for the XMP reproduction.

   Subcommands mirror the paper's experiments:
     xmp_sim run                      — registered scenarios by name and
                                        run specs, through the parallel,
                                        cached scenario runner
     xmp_sim fig1|fig4|fig6|fig7      — time-series testbed experiments
     xmp_sim matrix                   — fat-tree goodput matrix (Table 1)
     xmp_sim trace                    — one instrumented run, flight
                                        recording exported as CSV/JSONL
     xmp_sim coexist                  — Table 2
     xmp_sim ablation                 — parameter sweeps
   The figure and trace subcommands also take --fault/--fail-link/--loss. *)

open Cmdliner
module E = Xmp_experiments
module Runner = Xmp_runner.Runner
module Time = Xmp_engine.Time
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

let even_arity =
  checked Arg.int ~expected:"an even arity >= 2" (fun k -> k >= 2 && k mod 2 = 0)

let positive_int =
  checked Arg.int ~expected:"a positive integer" (fun n -> n >= 1)

let finite_positive =
  checked Arg.float ~expected:"a finite positive number" (fun x ->
      Float.is_finite x && x > 0.)

let beta_divisor = checked Arg.int ~expected:"an integer >= 2" (fun b -> b >= 2)

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
  let nonneg = checked Arg.int ~expected:"an integer >= 0" (fun n -> n >= 0) in
  Arg.(value & opt nonneg 10 & info [ "mark" ] ~docv:"PKTS" ~doc)

let queue_t =
  let doc = "Switch queue capacity in packets." in
  Arg.(value & opt positive_int 100 & info [ "queue" ] ~docv:"PKTS" ~doc)

(* ----- fault-injection options (shared by the figure and trace
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

let base_of k horizon seed marking queue beta =
  {
    E.Run_spec.default_base with
    k;
    horizon = Time.sec horizon;
    seed;
    marking_threshold = marking;
    queue_pkts = queue;
    beta;
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

(* ----- run: registered scenarios and run specs, through the cached
   parallel runner ----- *)

type item = Named of string | Spec of string * E.Run_spec.t

let item_conv =
  let parse s =
    match E.Scenarios.select E.Scenarios.default [ s ] with
    | Ok _ -> Ok (Named s)
    | Error _ -> (
      match E.Run_spec.of_string s with
      | Ok spec -> Ok (Spec (s, spec))
      | Error m when String.contains s ' ' -> Error (`Msg m)
      | Error _ -> Error (`Msg (Printf.sprintf "unknown scenario or run spec %S" s)))
  in
  Arg.conv (parse, fun fmt (Named s | Spec (s, _)) -> Format.pp_print_string fmt s)

let default_set =
  [
    "fig1"; "fig4"; "fig6"; "fig7"; "table1"; "fig8"; "fig9"; "fig10";
    "fig11"; "table2"; "table3"; "ablations";
  ]

let run_cmd =
  let mode_t =
    Arg.(
      value
      & vflag E.Scenarios.default
          [
            (E.Scenarios.quick, info [ "quick" ] ~doc:"Fast sanity scale for named scenarios.");
            ( E.Scenarios.paper,
              info [ "paper-scale" ] ~doc:"k=8 fat tree and 1.0x schedules for named scenarios." );
          ])
  in
  let jobs_t =
    let doc = "Number of worker processes for the scenario runner." in
    Arg.(value & opt positive_int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let no_cache_t =
    let doc = "Ignore and do not write _xmp_cache/ result entries." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let domains_t =
    let doc = "Worker domains for a sharded open-loop run (never changes results)." in
    Arg.(value & opt positive_int 1 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let out_t =
    let doc =
      "Write the one spec's CSV exports: $(docv).fct.csv and $(docv).cdf.csv \
       (open-loop runs) and $(docv).goodput.csv (WAN runs). The run is \
       simulated even if the cache holds it."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PREFIX" ~doc)
  in
  let list_links_t =
    let doc = "Print each spec's link names (the $(b,link=NAME) fault targets) and exit." in
    Arg.(value & flag & info [ "list-links" ] ~doc)
  in
  let items_t =
    let doc =
      "A registered scenario or group (see SCENARIOS), or a run spec such as \
       $(b,'ft:4 XMP-4 incast horizon=2s') (see $(b,Run_spec) in \
       lib/experiments/run_spec.mli). Default: the paper's figures and tables."
    in
    Arg.(value & pos_all item_conv [] & info [] ~docv:"NAME|SPEC" ~doc)
  in
  let run cfg jobs no_cache domains out list_links items =
    let specs = List.filter_map (function Spec (_, s) -> Some s | Named _ -> None) items in
    let one_spec = match items with [ Spec _ ] -> true | _ -> false in
    if list_links && specs = [] then `Error (true, "option '--list-links' needs a run spec")
    else if list_links then
      `Ok (List.iter (fun s -> List.iter print_endline (E.Run_spec.link_names s)) specs)
    else if out <> None && not one_spec then
      `Error (true, "option '--out' takes exactly one run spec")
    else
      let write files =
        Option.iter
          (fun prefix ->
            List.iter (fun (suffix, csv) -> write_file (prefix ^ suffix) csv) files;
            Printf.eprintf "[run] wrote %s\n%!"
              (String.concat ", " (List.map (fun (suffix, _) -> prefix ^ suffix) files)))
          out
      in
      let scenario = function
        | Named name -> Result.get_ok (E.Scenarios.select cfg [ name ])
        | Spec (text, spec) ->
          [
            E.Scenarios.keyed ~name:text ~descr:"run spec" (E.Run_spec.key spec)
              (fun () -> write (E.Run_spec.run ~domains spec));
          ]
      in
      (* as Scenarios.select does, a repeated name runs and prints once *)
      let rec dedup seen = function
        | [] -> []
        | (s : Xmp_runner.Scenario.t) :: rest ->
          if List.mem s.name seen then dedup seen rest else s :: dedup (s.name :: seen) rest
      in
      let items = if items = [] then List.map (fun n -> Named n) default_set else items in
      let cache =
        if no_cache || out <> None then Runner.No_cache
        else Runner.Cache_dir Xmp_runner.Cache.default_dir
      in
      `Ok (ignore (Runner.run_and_print ~jobs ~cache (dedup [] (List.concat_map scenario items))))
  in
  let scenarios =
    List.map
      (fun (s : Xmp_runner.Scenario.t) -> `I (s.name, s.descr))
      (E.Scenarios.all E.Scenarios.default)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Registered scenarios by name and run specs, across worker \
          processes with digest-keyed result caching"
       ~man:(`S "SCENARIOS" :: scenarios @ [ `I ("ablations, faults, workload, wan", "groups") ]))
    Term.(
      ret
        (const run $ mode_t $ jobs_t $ no_cache_t $ domains_t $ out_t
       $ list_links_t $ items_t))

let main_cmd =
  let doc = "packet-level reproduction of XMP (CoNEXT 2013)" in
  Cmd.group
    (Cmd.info "xmp_sim" ~version:"1.0.0" ~doc)
    [
      run_cmd; fig1_cmd; fig4_cmd; fig6_cmd; fig7_cmd; matrix_cmd; trace_cmd;
      coexist_cmd; ablation_cmd;
    ]

let () =
  (* Simulation allocates fast but retains little; a higher space
     overhead keeps the major GC off the packet hot path (results are
     byte-identical either way). *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 200 };
  exit (Cmd.eval main_cmd)
