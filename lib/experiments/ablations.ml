module Time = Xmp_engine.Time
module Net = Xmp_net
module Scheme = Xmp_workload.Scheme
module Metrics = Xmp_workload.Metrics
module Driver = Xmp_workload.Driver
module Table = Xmp_stats.Table

let sweep_betas = [ 2; 3; 4; 5; 6; 8 ]

let print_beta_sweep ~scale ?(betas = sweep_betas) () =
  Render.heading
    "Ablation: beta vs fairness (Figure 6 scenario, Jain across flows)";
  let rows =
    List.map
      (fun beta ->
        let r =
          Fig6.run ~scale ~seed:Fig6.seed
            ~faults:Xmp_engine.Fault_spec.empty ~beta ()
        in
        [ string_of_int beta; Table.fixed 3 r.Fig6.jain_flows ])
      betas
  in
  Table.print ~header:[ "beta"; "Jain index" ] ~rows ()

let bottleneck net = Option.get (Net.Network.find_link net ~name:"IN1->OUT1")

let k_sweep_seed = 23

(* Figure 1's dumbbell with [hosts] host pairs, [queue] on every
   bottleneck *)
let dumbbell ~hosts ~seed ~queue ~capacity_pkts ~horizon_s schedule =
  Panel.run { Fig1.geometry with hosts } ~seed
    ~telemetry:Xmp_telemetry.Sink.null ~faults:Xmp_engine.Fault_spec.empty
    ~queue ~capacity_pkts ~bucket_s:horizon_s ~horizon_s schedule

(* One long-lived BOS flow on Figure 1's bottleneck per K: utilization
   should cross ~1 at the Equation 1 bound and RTT should grow linearly
   in K beyond it. *)
let k_sweep_point ~k ~beta =
  let horizon_s = 0.5 in
  dumbbell ~hosts:1 ~seed:k_sweep_seed
    ~queue:(Net.Queue_disc.Threshold_mark k) ~capacity_pkts:200 ~horizon_s
  @@ fun env ->
  let rtts = Xmp_stats.Running.create () in
  ignore
    (Panel.flow env
       ~observer:
         {
           Scheme.silent with
           on_rtt_sample =
             (fun rtt -> Xmp_stats.Running.add rtts (Time.to_us rtt));
         }
       ~flow:1 ~host:0 ~paths:[ 0 ]
       (Scheme.launcher (Scheme.xmp 1) { Scheme.default_overrides with beta }));
  fun () ->
    let util =
      Net.Link.utilization (bottleneck env.net) ~duration:(Time.sec horizon_s)
    in
    (util, Xmp_stats.Running.mean rtts)

let print_k_sweep ?(ks = [ 2; 4; 6; 8; 10; 15; 20; 40 ]) () =
  let beta = 4 in
  Render.heading
    (Printf.sprintf
       "Ablation: marking threshold K vs utilization and RTT (beta = %d)"
       beta);
  let bdp =
    Xmp_core.Params.bdp_packets ~rate:(List.hd Fig1.geometry.rates)
      ~rtt:(Panel.zero_load_rtt Fig1.geometry)
      ~packet_bytes:Net.Packet.data_wire_bytes
  in
  let k_min = Xmp_core.Params.min_k ~bdp_packets:bdp ~beta in
  Render.printf "BDP = %.1f packets; Equation 1 bound: K >= %d\n" bdp k_min;
  let rows =
    List.map
      (fun k ->
        let util, rtt_us = k_sweep_point ~k ~beta in
        [
          string_of_int k;
          Table.fixed 3 util;
          Table.fixed 0 rtt_us;
          (if k >= k_min then "yes" else "no");
        ])
      ks
  in
  Table.print
    ~header:[ "K"; "utilization"; "mean RTT (us)"; "Eq.1 satisfied" ]
    ~rows ()

let mean_goodput base scheme pattern =
  let r = Run_spec.result base scheme pattern in
  Metrics.mean_goodput_bps r.Driver.metrics /. 1e6

let print_subflow_sweep (base : Run_spec.base) =
  Render.heading
    "Ablation: subflow count vs mean goodput (Permutation pattern, Mbps)";
  let rows =
    List.map
      (fun n ->
        [
          string_of_int n;
          Table.fixed 1
            (mean_goodput base (Scheme.lia n) Run_spec.Permutation);
          Table.fixed 1
            (mean_goodput base (Scheme.xmp n) Run_spec.Permutation);
        ])
      [ 1; 2; 3; 4 ]
  in
  Table.print ~header:[ "subflows"; "LIA"; "XMP" ] ~rows ()

let print_coupling_comparison (base : Run_spec.base) =
  Render.heading
    "Ablation: coupling comparison LIA / OLIA / XMP (mean goodput, Mbps)";
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (label, scheme) ->
            [
              Printf.sprintf "%s-%d" label n;
              Table.fixed 1
                (mean_goodput base scheme Run_spec.Permutation);
              Table.fixed 1 (mean_goodput base scheme Run_spec.Random);
            ])
          [
            ("LIA", Scheme.lia n);
            ("OLIA", Scheme.olia n);
            ("XMP", Scheme.xmp n);
          ])
      [ 2; 4 ]
  in
  Table.print ~header:[ "Coupling"; "Permutation"; "Random" ] ~rows ()

let print_flow_size_sweep (base : Run_spec.base) =
  Render.heading
    "Ablation: flow size vs LIA's multipath gain (Permutation, Mbps)";
  Render.say
    "Short flows restart slow start constantly; the synchronized restart\n\
     losses hit many-subflow LIA hardest (tiny per-subflow windows cannot\n\
     fast-retransmit, so every loss costs a 200 ms RTO). The paper's\n\
     64-512 MB flows are long-lived: LIA-4's path-diversity gain only\n\
     appears once flows live much longer than slow start.";
  let rows =
    List.map
      (fun size_scale ->
        let base = { base with Run_spec.size_scale } in
        let gp s =
          Table.fixed 1 (mean_goodput base s Run_spec.Permutation)
        in
        [
          Printf.sprintf "%g-%g MB" (2. *. size_scale) (16. *. size_scale);
          gp (Scheme.lia 2);
          gp (Scheme.lia 4);
          gp (Scheme.xmp 2);
        ])
      [ 0.5; 2.; 8. ]
  in
  Table.print
    ~header:[ "Flow sizes"; "LIA-2"; "LIA-4"; "XMP-2" ]
    ~rows ()

let print_incast_fanout_sweep (base : Run_spec.base) =
  Render.heading
    "Ablation: pure incast fanout (no background flows, TCP small flows)";
  Render.say
    "The TCP-collapse mechanics behind Figure 9 and Table 3 (Vasudevan et\n\
     al., cited in section 6): once the synchronized responses overflow\n\
     the client's edge-port buffer, jobs pay the 200 ms RTOmin.";
  let rows =
    List.map
      (fun fanout ->
        let pattern =
          Driver.Incast
            {
              jobs = 1;
              fanout;
              request_segments = 2;
              response_segments = 45;
              bg_mean_segments = 0.;
              bg_cap_segments = 1.;
              bg_shape = 1.5;
            }
        in
        let cfg =
          {
            (Run_spec.driver_config base (Scheme.xmp 2)
               Run_spec.Incast)
            with
            Driver.pattern;
          }
        in
        let r = Driver.run cfg in
        let jobs = Metrics.job_times_ms r.Driver.metrics in
        if Xmp_stats.Distribution.is_empty jobs then
          [ string_of_int fanout; "--"; "--"; "--" ]
        else
          [
            string_of_int fanout;
            Table.fixed 1 (Xmp_stats.Distribution.percentile jobs 50.);
            Table.fixed 1 (Xmp_stats.Distribution.mean jobs);
            Table.fixed 1
              (100.
              *. Xmp_workload.Metrics.jobs_over_ms r.Driver.metrics 200.);
          ])
      [ 2; 4; 8; 12; 15 ]
  in
  Table.print
    ~header:
      [ "Fanout"; "Median JCT (ms)"; "Mean JCT (ms)"; "> 200 ms (%)" ]
    ~rows ()

let print_rto_min_sweep (base : Run_spec.base) =
  Render.heading
    "Ablation: RTOmin under Incast (jobs + background goodput)";
  let rows =
    List.concat_map
      (fun scheme ->
        List.map
          (fun rto_ms ->
            let base = { base with Run_spec.rto_min = Time.ms rto_ms } in
            let r = Run_spec.result base scheme Run_spec.Incast in
            let m = r.Driver.metrics in
            let jobs = Xmp_workload.Metrics.job_times_ms m in
            [
              Scheme.name scheme;
              string_of_int rto_ms;
              (if Xmp_stats.Distribution.is_empty jobs then "--"
               else Table.fixed 0 (Xmp_stats.Distribution.mean jobs));
              string_of_int (Xmp_stats.Distribution.count jobs);
              Table.fixed 1
                (Xmp_workload.Metrics.mean_goodput_bps m /. 1e6);
            ])
          [ 200; 20; 2 ])
      [ Scheme.lia 2; Scheme.xmp 2 ]
  in
  Table.print
    ~header:
      [ "Scheme"; "RTOmin (ms)"; "Mean JCT (ms)"; "Jobs"; "Goodput (Mbps)" ]
    ~rows ()

let queue_seed = 29

(* Sample the bottleneck queue occupancy under four same-scheme flows. *)
let queue_occupancy_point ~beta ~k scheme =
  let queue =
    if Scheme.uses_ecn scheme then Net.Queue_disc.Threshold_mark k
    else Net.Queue_disc.Droptail
  in
  dumbbell ~hosts:4 ~seed:queue_seed ~queue ~capacity_pkts:100 ~horizon_s:0.2
  @@ fun env ->
  let launcher =
    Scheme.launcher scheme { Scheme.default_overrides with beta }
  in
  for i = 0 to 3 do
    ignore (Panel.flow env ~flow:i ~host:i ~paths:[ 0 ] launcher)
  done;
  let queue = Net.Link.disc (bottleneck env.net) in
  let occupancy = Xmp_stats.Distribution.create () in
  Xmp_engine.Periodic.start env.sim ~first_after:(Time.ms 20)
    ~interval:(Time.us 100) (fun () ->
      Xmp_stats.Distribution.add occupancy
        (float_of_int (Net.Queue_disc.length queue)));
  fun () -> (occupancy, Net.Queue_disc.dropped queue)

let print_sack_comparison (base : Run_spec.base) =
  Render.heading
    "Ablation: SACK vs go-back-N recovery (Permutation goodput, Mbps)";
  Render.say
    "The paper's LIA/TCP results are dominated by 200 ms RTO recovery.\n\
     Giving the loss-driven schemes SACK-based recovery (a modern stack)\n\
     closes much of their gap to the ECN schemes - i.e. part of what the\n\
     paper measures is its baselines' loss recovery, not only their\n\
     congestion control.";
  let rows =
    List.map
      (fun scheme ->
        let gp sack =
          let base = { base with Run_spec.sack } in
          Table.fixed 1 (mean_goodput base scheme Run_spec.Permutation)
        in
        [ Scheme.name scheme; gp false; gp true ])
      [ Scheme.reno; Scheme.lia 2; Scheme.lia 4; Scheme.xmp 2 ]
  in
  Table.print ~header:[ "Scheme"; "no SACK"; "SACK" ] ~rows ()

let print_queue_occupancy () =
  let beta = 4 and k = 10 in
  Render.heading
    (Printf.sprintf
       "Ablation: queue occupancy, 4 flows on one 1 Gbps link (K = %d)" k);
  let rows =
    List.map
      (fun scheme ->
        let occ, drops = queue_occupancy_point ~beta ~k scheme in
        let mn, p10, p50, p90, mx = Xmp_stats.Distribution.five_number occ in
        [
          Scheme.name scheme;
          Table.fixed 1 mn;
          Table.fixed 1 p10;
          Table.fixed 1 p50;
          Table.fixed 1 p90;
          Table.fixed 1 mx;
          string_of_int drops;
        ])
      [ Scheme.xmp 1; Scheme.dctcp; Scheme.reno; Scheme.lia 1 ]
  in
  Table.print
    ~header:
      [ "Scheme"; "min"; "p10"; "p50"; "p90"; "max"; "drops" ]
    ~rows ()
