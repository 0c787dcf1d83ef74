module Scenario = Xmp_runner.Scenario
module Time = Xmp_engine.Time
module Fault_spec = Xmp_engine.Fault_spec

type config = {
  tag : string;
  scale : float;
  base : Run_spec.base;
}

let default = { tag = "default"; scale = 0.2; base = Run_spec.default_base }

let quick =
  {
    tag = "quick";
    scale = 0.1;
    base = { Run_spec.default_base with horizon = Time.sec 0.5 };
  }

let paper = { tag = "paper"; scale = 1.0; base = Run_spec.paper_scale_base }

(* What a registered name runs: a testbed figure is a heading over its
   panel specs, a base view prints the runs of one fat-tree base (an
   incast view among them needs a base with the hosts an incast draws),
   and the rest build their own key and run. *)
type body =
  | Figure of string * (scale:float -> Run_spec.testbed list)
  | View of (Run_spec.base -> unit)
  | Incast_view of (Run_spec.base -> unit)
  | Keyed of (config -> string * (unit -> unit))

let panel ~scale p = { (Run_spec.testbed p) with scale }

let paper_betas ps ~scale = List.map (fun beta -> panel ~scale (ps beta)) [ 4; 6 ]

(* fig4 with bottleneck DN2 failing mid-run: both directions of the
   second bottleneck go down at 1.0 schedule units and come back at 1.5
   (at quick scale, down at t = 1 s for 0.5 s). Flow 3 loses its only
   path and must ride out the outage on retransmission timers; Flow 2
   shifts everything onto DN1. *)
let fig4_linkfail ~scale =
  let unit_s = 10. *. scale in
  let down_at = Time.sec (1.0 *. unit_s) in
  let up_at = Time.sec (1.5 *. unit_s) in
  let faults =
    Fault_spec.create
      (List.concat_map
         (fun name ->
           [
             Fault_spec.Link_down { target = Fault_spec.Link name; at = down_at };
             Fault_spec.Link_up { target = Fault_spec.Link name; at = up_at };
           ])
         [ "IN2->OUT2"; "OUT2->IN2" ])
  in
  [ { (panel ~scale (Run_spec.Fig4 { beta = 4 })) with faults } ]

(* incast under 1% i.i.d. loss on every rack (host <-> edge) link, both
   directions — data and ACK packets alike. *)
let incast_lossy base =
  Run_spec.Pattern
    {
      base =
        {
          base with
          Run_spec.faults =
            Fault_spec.create ~seed:97
              [ Fault_spec.spec_of_string "loss@0..inf@tag=rack@bern=0.01@any" ];
        };
      scheme = Xmp_workload.Scheme.xmp 2;
      pattern = Run_spec.Incast;
    }

let registry =
  [
    ( "fig1", "DCTCP vs halving-cwnd on one bottleneck",
      Figure
        ( "Figure 1: four flows on a 1 Gbps bottleneck (normalized rates)",
          fun ~scale ->
            List.map
              (fun (v : Fig1.variant) ->
                panel ~scale (Run_spec.Fig1 { dctcp = v.dctcp; mark = v.k }))
              Fig1.variants ) );
    ( "fig4", "traffic shifting on testbed 3(a)",
      Figure
        ( "Figure 4: traffic shifting of Flow 2 (testbed 3a, rates / 300 Mbps)",
          paper_betas (fun beta -> Run_spec.Fig4 { beta }) ) );
    ( "fig6", "fairness on testbed 3(b)",
      Figure
        ( "Figure 6: four flows, 3/2/1/1 subflows, one 300 Mbps bottleneck",
          paper_betas (fun beta -> Run_spec.Fig6 { beta }) ) );
    ( "fig7", "rate compensation on the ring",
      Figure
        ( "Figure 7: rate compensation on the ring (interval-averaged, / 1 Gbps)",
          fun ~scale ->
            List.map
              (fun (beta, mark) -> panel ~scale (Run_spec.Fig7 { beta; mark }))
              [ (4, 20); (5, 15); (6, 10) ] ) );
    ("table1", "average goodput matrix", Incast_view Fatree_eval.print_table1);
    ("fig8", "goodput distributions", Incast_view Fatree_eval.print_fig8);
    ("fig9", "job completion time CDF", Incast_view Fatree_eval.print_fig9);
    ("fig10", "RTT distributions", Incast_view Fatree_eval.print_fig10);
    ("fig11", "link utilization by layer", Incast_view Fatree_eval.print_fig11);
    ("table2", "coexistence goodput", View Coexistence.print_table2);
    ( "table2.extended", "coexistence goodput vs BALIA/VENO/AMP",
      View Coexistence.print_table2_extended );
    ("table3", "job completion times", Incast_view Fatree_eval.print_table3);
    ( "ablations.beta", "fairness/latency across beta",
      Keyed
        (fun { scale; _ } ->
          ( Run_spec.keys
              (List.map
                 (fun beta -> Run_spec.Testbed (panel ~scale (Run_spec.Fig6 { beta })))
                 Ablations.sweep_betas),
            fun () -> Ablations.print_beta_sweep ~scale () )) );
    ( "ablations.k", "utilization/RTT across marking threshold K",
      Keyed
        (fun _ ->
          ( Printf.sprintf "seed=%d beta=4" Ablations.k_sweep_seed,
            fun () -> Ablations.print_k_sweep () )) );
    ( "ablations.subflows", "goodput across subflow counts",
      View Ablations.print_subflow_sweep );
    ( "ablations.coupling", "LIA vs OLIA vs XMP coupling",
      View Ablations.print_coupling_comparison );
    ( "ablations.flow_size", "goodput across flow sizes",
      View Ablations.print_flow_size_sweep );
    ( "ablations.incast_fanout", "incast completion across fanout",
      Incast_view Ablations.print_incast_fanout_sweep );
    ( "ablations.rto_min", "incast across RTOmin",
      Incast_view Ablations.print_rto_min_sweep );
    ("ablations.sack", "matrix with SACK recovery", View Ablations.print_sack_comparison);
    ( "ablations.queue", "buffer occupancy by scheme",
      Keyed
        (fun _ ->
          ( Printf.sprintf "seed=%d beta=4 k=10" Ablations.queue_seed,
            fun () -> Ablations.print_queue_occupancy () )) );
    ( "fig4.sharded", "traffic shifting on a pod-sharded fat tree (k=4)",
      Keyed
        (fun { scale; _ } ->
          ( Printf.sprintf "seed=%d scale=%s beta=4 k=4" Fig4_sharded.seed
              (Fault_spec.float_to_string scale),
            fun () -> Fig4_sharded.run_and_print ~scale () )) );
    ( "fig4.linkfail", "traffic shifting with bottleneck DN2 failing mid-run",
      Figure ("Figure 4 variant: DN2 down for half a load interval", fig4_linkfail) );
    ( "incast.lossy", "incast with 1% Bernoulli loss on rack links",
      Keyed
        (fun { base; _ } ->
          let spec = incast_lossy base in
          (Run_spec.to_string spec, fun () -> ignore (Run_spec.run spec))) );
    ( "wl.websearch.k8", "open-loop web-search FCT slowdowns on the sharded k=8 tree",
      Keyed
        (fun { scale; _ } ->
          ( Run_spec.to_string (Run_spec.Workload (Workload_eval.websearch_spec ~scale)),
            fun () -> Workload_eval.print_websearch ~scale () )) );
    ( "wl.incast.sweep", "job completion times across incast fanout",
      Incast_view Workload_eval.print_incast_sweep );
    ("wl.shuffle", "all-to-all shuffle goodput", View Workload_eval.print_shuffle);
    ( "wan.asym",
      "bridged k=4/k=4 with 10 ms vs 40 ms trunks: per-subflow RTT asymmetry, \
       TraSh shifting, domains byte-equality",
      Keyed (fun { scale; _ } -> (Wan_eval.asym_key ~scale, Wan_eval.print_asym ~scale)) );
    ( "wan.bdp", "Eq. 1 marking threshold at 10/40/100 ms WAN BDPs",
      Keyed (fun { scale; _ } -> (Wan_eval.bdp_key, Wan_eval.print_bdp ~scale)) );
    ( "wan.mixed", "cross-DC traffic fraction sweep over a 40 ms trunk",
      Keyed (fun { scale; _ } -> (Wan_eval.mixed_key ~scale, Wan_eval.print_mixed ~scale)) );
  ]

(* A scenario's key is the canonical text of everything its output
   depends on, built by Run_spec's printers. *)
let view ~name ~descr run base =
  Scenario.create ~name ~descr ~key:(Run_spec.base_to_string base) (fun () ->
      run base)

let scenario cfg (name, descr, body) =
  match body with
  | Figure (heading, panels) ->
    let specs = List.map (fun t -> Run_spec.Testbed t) (panels ~scale:cfg.scale) in
    Scenario.create ~name ~descr ~key:(Run_spec.keys specs) (fun () ->
        Render.heading heading;
        List.iter (fun s -> ignore (Run_spec.run s)) specs)
  | View run | Incast_view run -> view ~name ~descr run cfg.base
  | Keyed f ->
    let key, run = f cfg in
    Scenario.create ~name ~descr ~key run

let all cfg = List.map (scenario cfg) registry

let groups =
  [
    ( "ablations",
      [
        "ablations.beta"; "ablations.k"; "ablations.subflows";
        "ablations.coupling"; "ablations.flow_size";
        "ablations.incast_fanout"; "ablations.rto_min"; "ablations.sack";
        "ablations.queue";
      ] );
    ("faults", [ "fig4.linkfail"; "incast.lossy" ]);
    ("workload", [ "wl.websearch.k8"; "wl.incast.sweep"; "wl.shuffle" ]);
    ("wan", [ "wan.asym"; "wan.bdp"; "wan.mixed" ]);
  ]

let find name = List.find_opt (fun (n, _, _) -> String.equal n name) registry

(* one id: a name, a group, or a base view followed by its base *)
let resolve cfg id =
  let unknown = Error (Printf.sprintf "unknown scenario or run spec %S" id) in
  match List.filter (( <> ) "") (String.split_on_char ' ' id) with
  | [] -> unknown
  | name :: rest -> (
    match (List.assoc_opt name groups, find name, rest) with
    | Some members, _, [] -> Ok (List.map (fun n -> scenario cfg (Option.get (find n))) members)
    | None, Some entry, [] -> Ok [ scenario cfg entry ]
    | None, Some (_, descr, ((View run | Incast_view run) as body)), _ ->
      let base = Run_spec.base_of_string (String.concat " " rest) in
      let base =
        match body with Incast_view _ -> Result.bind base Run_spec.incast_base | _ -> base
      in
      Result.map (fun base -> [ view ~name:(String.trim id) ~descr run base ]) base
    | _, _, word :: _ when List.mem_assoc name groups || Option.is_some (find name) ->
      let field = List.hd (String.split_on_char '=' word) in
      Error (Printf.sprintf "field '%s': %s takes no base" field name)
    | _ -> unknown)

let select cfg ids =
  let rec dedup seen = function
    | [] -> []
    | (s : Scenario.t) :: rest ->
      if List.mem s.name seen then dedup seen rest else s :: dedup (s.name :: seen) rest
  in
  let add acc id =
    Result.bind acc (fun l -> Result.map (fun r -> List.rev_append r l) (resolve cfg id))
  in
  List.fold_left add (Ok []) ids
  |> Result.map (fun l -> dedup [] (List.rev l))

let golden () =
  Result.get_ok
    (select quick
       [ "fig1"; "fig4"; "fig6"; "fig7"; "ablations.k"; "ablations.queue"; "wan.asym";
         "wan.mixed"; "wl.incast.sweep"; "incast.lossy" ])
