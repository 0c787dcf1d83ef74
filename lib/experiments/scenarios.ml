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

(* A scenario's key is the canonical text of everything its output
   depends on, built by Run_spec's printers. *)
let keyed ~name ~descr key run =
  Scenario.create ~name ~descr ~params:[ ("key", key) ] run

(* The testbed figures take their seed as an optional argument defaulting
   to a named constant in each module; the key pins that constant. *)
let fig_key ~seed ~scale =
  Printf.sprintf "seed=%d scale=%s" seed (Fault_spec.float_to_string scale)

let fig ~name ~descr ~scale ~seed run =
  keyed ~name ~descr (fig_key ~seed ~scale) (fun () -> run ~scale ())

let table ~name ~descr ~base run =
  keyed ~name ~descr (Run_spec.base_to_string base) (fun () -> run base)

(* fig4 with bottleneck DN2 failing mid-run: both directions of the
   second bottleneck go down at 1.0 schedule units and come back at 1.5
   (at quick scale, down at t = 1 s for 0.5 s). Flow 3 loses its only
   path and must ride out the outage on retransmission timers; Flow 2
   shifts everything onto DN1. *)
let fig4_linkfail_faults ~scale =
  let unit_s = 10. *. scale in
  let down_at = Time.sec (1.0 *. unit_s) in
  let up_at = Time.sec (1.5 *. unit_s) in
  Fault_spec.create
    (List.concat_map
       (fun name ->
         [
           Fault_spec.Link_down { target = Fault_spec.Link name; at = down_at };
           Fault_spec.Link_up { target = Fault_spec.Link name; at = up_at };
         ])
       [ "IN2->OUT2"; "OUT2->IN2" ])

(* incast under 1% i.i.d. loss on every rack (host <-> edge) link, both
   directions — data and ACK packets alike. *)
let incast_lossy_base base =
  {
    base with
    Run_spec.faults =
      Fault_spec.create ~seed:97
        [ Fault_spec.spec_of_string "loss@0..inf@tag=rack@bern=0.01@any" ];
  }

let all cfg =
  let { scale; base; _ } = cfg in
  [
    fig ~name:"fig1" ~descr:"DCTCP vs halving-cwnd on one bottleneck" ~scale
      ~seed:Fig1.seed (fun ~scale () -> Fig1.run_and_print_all ~scale ());
    fig ~name:"fig4" ~descr:"traffic shifting on testbed 3(a)" ~scale
      ~seed:Fig4.seed (fun ~scale () -> Fig4.run_and_print_all ~scale ());
    fig ~name:"fig6" ~descr:"fairness on testbed 3(b)" ~scale
      ~seed:Fig6.seed (fun ~scale () -> Fig6.run_and_print_all ~scale ());
    fig ~name:"fig7" ~descr:"rate compensation on the ring" ~scale
      ~seed:Fig7.seed (fun ~scale () -> Fig7.run_and_print_all ~scale ());
    table ~name:"table1" ~descr:"average goodput matrix" ~base
      Fatree_eval.print_table1;
    table ~name:"fig8" ~descr:"goodput distributions" ~base
      Fatree_eval.print_fig8;
    table ~name:"fig9" ~descr:"job completion time CDF" ~base
      Fatree_eval.print_fig9;
    table ~name:"fig10" ~descr:"RTT distributions" ~base
      Fatree_eval.print_fig10;
    table ~name:"fig11" ~descr:"link utilization by layer" ~base
      Fatree_eval.print_fig11;
    table ~name:"table2" ~descr:"coexistence goodput" ~base (fun base ->
        Coexistence.print_table2 ~base ());
    table ~name:"table2.extended"
      ~descr:"coexistence goodput vs BALIA/VENO/AMP" ~base (fun base ->
        Coexistence.print_table2_extended ~base ());
    table ~name:"table3" ~descr:"job completion times" ~base
      Fatree_eval.print_table3;
    fig ~name:"ablations.beta" ~descr:"fairness/latency across beta" ~scale
      ~seed:Fig6.seed (fun ~scale () -> Ablations.print_beta_sweep ~scale ());
    keyed ~name:"ablations.k"
      ~descr:"utilization/RTT across marking threshold K"
      (Printf.sprintf "seed=%d beta=4" Ablations.k_sweep_seed)
      (fun () -> Ablations.print_k_sweep ());
    table ~name:"ablations.subflows" ~descr:"goodput across subflow counts"
      ~base (fun base -> Ablations.print_subflow_sweep ~base ());
    table ~name:"ablations.coupling" ~descr:"LIA vs OLIA vs XMP coupling"
      ~base (fun base -> Ablations.print_coupling_comparison ~base ());
    table ~name:"ablations.flow_size" ~descr:"goodput across flow sizes"
      ~base (fun base -> Ablations.print_flow_size_sweep ~base ());
    table ~name:"ablations.incast_fanout"
      ~descr:"incast completion across fanout" ~base (fun base ->
        Ablations.print_incast_fanout_sweep ~base ());
    table ~name:"ablations.rto_min" ~descr:"incast across RTOmin" ~base
      (fun base -> Ablations.print_rto_min_sweep ~base ());
    table ~name:"ablations.sack" ~descr:"matrix with SACK recovery" ~base
      (fun base -> Ablations.print_sack_comparison ~base ());
    keyed ~name:"ablations.queue" ~descr:"buffer occupancy by scheme"
      (Printf.sprintf "seed=%d beta=4 k=10" Ablations.queue_seed)
      (fun () -> Ablations.print_queue_occupancy ());
    keyed ~name:"fig4.sharded"
      ~descr:"traffic shifting on a pod-sharded fat tree (k=4)"
      (fig_key ~seed:Fig4_sharded.seed ~scale ^ " beta=4 k=4")
      (fun () -> Fig4_sharded.run_and_print ~scale ());
    (let faults = fig4_linkfail_faults ~scale in
     keyed ~name:"fig4.linkfail"
       ~descr:"traffic shifting with bottleneck DN2 failing mid-run"
       (fig_key ~seed:Fig4.seed ~scale ^ " " ^ Run_spec.faults_to_string faults)
       (fun () ->
         Render.heading
           "Figure 4 variant: DN2 down for half a load interval";
         Fig4.print (Fig4.run ~scale ~faults ~beta:4 ())));
    (let spec =
       Run_spec.Pattern
         {
           base = incast_lossy_base base;
           scheme = Xmp_workload.Scheme.xmp 2;
           pattern = Run_spec.Incast;
         }
     in
     keyed ~name:"incast.lossy"
       ~descr:"incast with 1% Bernoulli loss on rack links"
       (Run_spec.to_string spec)
       (fun () -> ignore (Run_spec.run spec)));
    keyed ~name:"wl.websearch.k8"
      ~descr:"open-loop web-search FCT slowdowns on the sharded k=8 tree"
      (Run_spec.to_string
         (Run_spec.Workload (Workload_eval.websearch_spec ~scale)))
      (fun () -> Workload_eval.print_websearch ~scale ());
    table ~name:"wl.incast.sweep"
      ~descr:"job completion times across incast fanout" ~base
      Workload_eval.print_incast_sweep;
    table ~name:"wl.shuffle" ~descr:"all-to-all shuffle goodput" ~base
      Workload_eval.print_shuffle;
    keyed ~name:"wan.asym"
      ~descr:
        "bridged k=4/k=4 with 10 ms vs 40 ms trunks: per-subflow RTT \
         asymmetry, TraSh shifting, domains byte-equality"
      (Wan_eval.asym_key ~scale)
      (fun () -> Wan_eval.print_asym ~scale ());
    keyed ~name:"wan.bdp"
      ~descr:"Eq. 1 marking threshold at 10/40/100 ms WAN BDPs"
      Wan_eval.bdp_key
      (fun () -> Wan_eval.print_bdp ~scale ());
    keyed ~name:"wan.mixed"
      ~descr:"cross-DC traffic fraction sweep over a 40 ms trunk"
      (Wan_eval.mixed_key ~scale)
      (fun () -> Wan_eval.print_mixed ~scale ());
  ]

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

let select cfg ids =
  let scenarios = all cfg in
  let by_name name =
    List.find_opt (fun s -> String.equal s.Scenario.name name) scenarios
  in
  let expand id =
    match List.assoc_opt id groups with
    | Some members -> members
    | None -> [ id ]
  in
  let rec resolve acc seen = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
      if List.mem name seen then resolve acc seen rest
      else
        match by_name name with
        | Some s -> resolve (s :: acc) (name :: seen) rest
        | None -> Error name)
  in
  resolve [] [] (List.concat_map expand ids)

let golden () =
  match select quick [ "fig1"; "fig4"; "fig6"; "fig7" ] with
  | Ok l -> l
  | Error _ -> assert false
