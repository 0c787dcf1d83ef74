(* xmp-sim: command-line front end for the XMP reproduction.

     xmp_sim run [NAME|SPEC]...  — registered scenarios (a figure, a table
                                   view optionally over its own base, a
                                   group) and run specs, through the
                                   parallel, cached scenario runner
     xmp_sim trace SPEC          — one instrumented testbed panel, flight
                                   recording exported as CSV/JSONL

   Every run is a Run_spec word (lib/experiments/run_spec.mli): a fat-tree
   pattern run, an open-loop run, or a testbed panel such as
   'tb:fig4 beta=6 scale=0.05'. Faults are fault= fields of the spec. *)

open Cmdliner
module E = Xmp_experiments
module Runner = Xmp_runner.Runner
module Tel = Xmp_telemetry

(* a malformed value is a parse error (exit 124, naming the option),
   never an exception halfway into a run *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* ----- run: registered scenarios and run specs, through the cached
   parallel runner ----- *)

type item = Named of string | Spec of string * E.Run_spec.t

(* a spec's first word is its topology (ft:, ls:, tb:); a scenario name
   has no ':' *)
let item_conv =
  let parse s =
    if String.contains (List.hd (String.split_on_char ' ' (String.trim s))) ':' then
      Result.map (fun spec -> Spec (s, spec)) (E.Run_spec.of_string s)
      |> Result.map_error (fun m -> `Msg m)
    else
      Result.map (fun _ -> Named s) (E.Scenarios.select E.Scenarios.default [ s ])
      |> Result.map_error (fun m -> `Msg m)
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
      "A registered scenario or group (see SCENARIOS), a table view followed \
       by its fat-tree base ($(b,'table1 ft:8 horizon=4s')), or a run spec \
       such as $(b,'ft:4 XMP-4 incast horizon=2s') or \
       $(b,'tb:fig7 beta=5 mark=15') (see $(b,Run_spec) in \
       lib/experiments/run_spec.mli). Default: the paper's figures and tables."
    in
    Arg.(value & pos_all item_conv [] & info [] ~docv:"NAME|SPEC" ~doc)
  in
  let run cfg jobs no_cache domains out list_links items =
    let specs = List.filter_map (function Spec (_, s) -> Some s | Named _ -> None) items in
    let one_spec = match items with [ Spec _ ] -> true | _ -> false in
    if list_links && specs = [] then `Error (true, "option '--list-links' needs a run spec")
    else if list_links then
      let names s = List.map Xmp_net.Link.name (Xmp_net.Network.links (E.Run_spec.scratch_net s)) in
      `Ok (Ok (List.iter (fun s -> List.iter print_endline (names s)) specs))
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
            Xmp_runner.Scenario.create ~name:text ~descr:"run spec"
              ~key:(E.Run_spec.key spec) (fun () ->
                write (E.Run_spec.run ~domains spec));
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
      match Runner.run_and_print ~jobs ~cache (dedup [] (List.concat_map scenario items)) with
      | _ -> `Ok (Ok ())
      | exception Failure m -> `Ok (Error m)
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

(* ----- trace: one instrumented testbed panel, recording exported ----- *)

let testbed_conv =
  let parse s =
    match E.Run_spec.of_string s with
    | Ok (E.Run_spec.Testbed tb) -> Ok tb
    | Ok (E.Run_spec.Pattern _ | E.Run_spec.Workload _) ->
      Error (`Msg "field 'topology': trace runs a testbed panel (tb:fig1/4/6/7)")
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun fmt tb -> Format.pp_print_string fmt (E.Run_spec.to_string (E.Run_spec.Testbed tb)))

let trace_cmd =
  let spec_t =
    let doc = "The testbed panel to trace, e.g. $(b,'tb:fig4 beta=4 scale=0.05')." in
    Arg.(required & pos 0 (some testbed_conv) None & info [] ~docv:"SPEC" ~doc)
  in
  let events_t =
    let kind = Arg.enum (List.map (fun k -> (k, k)) Tel.Event.all_kinds) in
    let doc =
      "Comma-separated event kinds to keep (e.g. $(b,ce-mark,cwnd-change)); \
       default: all."
    in
    Arg.(value & opt (some (list kind)) None & info [ "events" ] ~docv:"KINDS" ~doc)
  in
  let format_t =
    let doc = "Stdout format when $(b,--out) is absent: $(b,csv) or $(b,jsonl)." in
    Arg.(
      value
      & opt (enum [ ("csv", `Csv); ("jsonl", `Jsonl) ]) `Csv
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let out_t =
    let doc =
      "Write $(docv).csv and $(docv).jsonl (the event recording) plus \
       $(docv).metrics.csv and $(docv).metrics.jsonl (the metrics registry) \
       instead of printing to stdout."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PREFIX" ~doc)
  in
  let capacity_t =
    let doc = "Flight-recorder capacity in events (oldest are evicted)." in
    Arg.(value & opt positive_int 65536 & info [ "capacity" ] ~docv:"EVENTS" ~doc)
  in
  let run tb events format out capacity =
    let sink = Tel.Sink.create ~recorder_capacity:capacity () in
    let (_print : unit -> unit) = E.Run_spec.simulate_panel ~telemetry:sink tb in
    let recorder = Tel.Sink.recorder sink in
    let registry = Tel.Sink.registry sink in
    let keep = Option.map (fun kinds ev -> List.mem (Tel.Event.kind ev) kinds) events in
    let events_csv = Tel.Export.events_csv ?keep recorder in
    let events_jsonl = Tel.Export.events_jsonl ?keep recorder in
    (match out with
    | Some prefix ->
      List.iter
        (fun (suffix, text) -> write_file (prefix ^ suffix) text)
        [
          (".csv", events_csv); (".jsonl", events_jsonl);
          (".metrics.csv", Tel.Export.metrics_csv registry);
          (".metrics.jsonl", Tel.Export.metrics_jsonl registry);
        ];
      Printf.eprintf "[trace] wrote %s.{csv,jsonl,metrics.csv,metrics.jsonl}\n" prefix
    | None -> (
      match format with
      | `Csv -> print_string events_csv
      | `Jsonl -> print_string events_jsonl));
    Printf.eprintf "[trace] %d events retained (%d recorded, %d evicted), %d metrics\n%!"
      (Tel.Recorder.length recorder)
      (Tel.Recorder.total recorder)
      (Tel.Recorder.dropped recorder)
      (Tel.Registry.cardinal registry);
    Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one testbed panel with telemetry enabled and export its flight \
          recording (and metrics registry) as CSV / JSONL")
    Term.(const run $ spec_t $ events_t $ format_t $ out_t $ capacity_t)

let main_cmd =
  let doc = "packet-level reproduction of XMP (CoNEXT 2013)" in
  Cmd.group (Cmd.info "xmp_sim" ~version:"1.0.0" ~doc) [ run_cmd; trace_cmd ]

let () =
  (* Simulation allocates fast but retains little; a higher space
     overhead keeps the major GC off the packet hot path (results are
     byte-identical either way). *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 200 };
  exit (Cmd.eval_result main_cmd)
