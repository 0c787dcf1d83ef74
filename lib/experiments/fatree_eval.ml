module Time = Xmp_engine.Time
module Scheme = Xmp_workload.Scheme
module Driver = Xmp_workload.Driver
module Metrics = Xmp_workload.Metrics
module Distribution = Xmp_stats.Distribution
module Table = Xmp_stats.Table
module Topology = Xmp_net.Topology

type pattern_id = Permutation | Random | Incast

let pattern_name = function
  | Permutation -> "Permutation"
  | Random -> "Random"
  | Incast -> "Incast"

type base = {
  k : int;
  horizon : Time.t;
  seed : int;
  queue_pkts : int;
  marking_threshold : int;
  beta : int;
  rto_min : Time.t;
  sack : bool;
  size_scale : float;
  incast_jobs : int;
  faults : Xmp_engine.Fault_spec.t;
}

let default_base =
  {
    k = 4;
    horizon = Time.sec 2.5;
    seed = 1;
    queue_pkts = 100;
    marking_threshold = 10;
    beta = 4;
    rto_min = Time.ms 200;
    sack = false;
    (* size_scale 4 gives 8-64 MB flows: long-lived enough that slow-start
       restarts do not dominate (the paper's flows are 64-512 MB); with
       smaller flows the synchronized restarts systematically punish
       many-subflow LIA (see the flow-size ablation) *)
    size_scale = 4.;
    incast_jobs = 3;
    faults = Xmp_engine.Fault_spec.empty;
  }

let paper_scale_base =
  {
    default_base with
    k = 8;
    horizon = Time.sec 3.;
    size_scale = 8.;
    incast_jobs = 8;
  }

let scaled_segments base s =
  Stdlib.max 1 (int_of_float (Float.round (float_of_int s *. base.size_scale)))

let segs_of_mb mb = int_of_float (Float.ceil (mb *. 1e6 /. 1460.))

let pattern_of base = function
  | Permutation ->
    Driver.Permutation
      {
        min_segments = scaled_segments base (segs_of_mb 2.);
        max_segments = scaled_segments base (segs_of_mb 16.);
      }
  | Random ->
    Driver.Random_pattern
      {
        mean_segments = float_of_int (scaled_segments base (segs_of_mb 6.));
        cap_segments = float_of_int (scaled_segments base (segs_of_mb 24.));
        shape = 1.5;
        max_inbound = 4;
      }
  | Incast ->
    Driver.Incast
      {
        jobs = base.incast_jobs;
        fanout = 8;
        request_segments = 2;
        response_segments = 45;
        bg_mean_segments = float_of_int (scaled_segments base (segs_of_mb 6.));
        bg_cap_segments = float_of_int (scaled_segments base (segs_of_mb 24.));
        bg_shape = 1.5;
      }

let driver_config base scheme pattern =
  {
    Driver.k = base.k;
    seed = base.seed;
    topology = Driver.Single_dc;
    cross_dc = 0.;
    horizon = base.horizon;
    queue_pkts = base.queue_pkts;
    marking_threshold = base.marking_threshold;
    beta = base.beta;
    rto_min = base.rto_min;
    sack = base.sack;
    assignment = Driver.Uniform scheme;
    pattern = pattern_of base pattern;
    rtt_subsample = 16;
    keep_flows = true;
    faults = base.faults;
    telemetry = Xmp_telemetry.Sink.null;
  }

(* xmplint: allow mutable-global — per-process memo of completed runs,
   keyed by the full canonical configuration; it is an explicitly scoped
   cache (clear_cache / with_cache below let runner workers isolate
   scenarios), and a stale entry cannot change results because the key
   covers every input that affects a run. Not yet domain-safe: guard or
   shard it before Domains-parallel evaluation. *)
let cache : (string, Driver.result) Hashtbl.t = Hashtbl.create 32

let cache_size () = Hashtbl.length cache
let clear_cache () = Hashtbl.reset cache

let with_cache f =
  let saved = Hashtbl.copy cache in
  Hashtbl.reset cache;
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.reset cache;
      (* xmplint: allow hashtbl-order — restoring a snapshot into an
         empty table; only lookups ever read it, so insertion order is
         unobservable *)
      Hashtbl.iter (fun k v -> Hashtbl.replace cache k v) saved)
    f

let cache_key base scheme pattern =
  (* fault schedule folds into the key via its canonical params; an empty
     schedule contributes nothing, keeping fault-free keys unchanged *)
  let fault_part =
    String.concat ";"
      (List.map
         (fun (k, v) -> k ^ "=" ^ v)
         (Xmp_engine.Fault_spec.to_params base.faults))
  in
  Printf.sprintf "%s|%s|k%d|h%d|s%d|q%d|K%d|b%d|r%d|x%g|j%d|sk%b|%s"
    (Scheme.name scheme) (pattern_name pattern) base.k base.horizon
    base.seed base.queue_pkts base.marking_threshold base.beta base.rto_min
    base.size_scale base.incast_jobs base.sack fault_part

let result base scheme pattern =
  let key = cache_key base scheme pattern in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
    let r = Driver.run (driver_config base scheme pattern) in
    Hashtbl.replace cache key r;
    r

(* Fault-injection evaluation: one run with a live telemetry sink so the
   injector's Link_down / Link_up / Injected_drop events are observable,
   summarized as a deterministic table. Not memoized — the run is cheap at
   scenario scale and the sink makes the result unshareable. *)
let print_fault_eval base scheme pattern =
  Render.heading
    (Printf.sprintf "Fault evaluation: %s under %s" (Scheme.name scheme)
       (pattern_name pattern));
  List.iter
    (fun spec ->
      Render.say
        (Printf.sprintf "fault: %s" (Xmp_engine.Fault_spec.spec_to_string spec)))
    base.faults.Xmp_engine.Fault_spec.specs;
  let sink = Xmp_telemetry.Sink.create () in
  let cfg = { (driver_config base scheme pattern) with telemetry = sink } in
  let r = Driver.run cfg in
  let count kind =
    let n = ref 0 in
    Xmp_telemetry.Recorder.iter
      (fun e ->
        if String.equal (Xmp_telemetry.Event.kind e.Xmp_telemetry.Recorder.event) kind
        then incr n)
      (Xmp_telemetry.Sink.recorder sink);
    !n
  in
  let m = r.Driver.metrics in
  let jobs = Metrics.job_times_ms m in
  Table.print
    ~header:[ "Metric"; "Value" ]
    ~rows:
      [
        [ "Flows recorded"; string_of_int (Metrics.n_completed_flows m) ];
        [
          "Flows truncated at horizon";
          string_of_int (Metrics.n_truncated_flows m);
        ];
        [
          "Mean goodput (Mbps)";
          Table.fixed 1 (Metrics.mean_goodput_bps r.Driver.metrics /. 1e6);
        ];
        [ "Jobs completed"; string_of_int (Distribution.count jobs) ];
        [ "Injected drops"; string_of_int r.Driver.injected_drops ];
        [ "link-down events"; string_of_int (count "link-down") ];
        [ "link-up events"; string_of_int (count "link-up") ];
        [ "injected-drop events"; string_of_int (count "injected-drop") ];
      ]
    ()

let table1_schemes =
  [ Scheme.dctcp; Scheme.lia 2; Scheme.lia 4; Scheme.xmp 2; Scheme.xmp 4 ]

let bar_schemes =
  [ Scheme.dctcp; Scheme.lia 4; Scheme.xmp 2; Scheme.xmp 4 ]

let all_patterns = [ Permutation; Random; Incast ]

let print_table1 base =
  Render.heading "Table 1: average goodput of large flows (Mbps)";
  let rows =
    List.map
      (fun scheme ->
        Scheme.name scheme
        :: List.map
             (fun pat ->
               let r = result base scheme pat in
               Table.fixed 1
                 (Metrics.mean_goodput_bps r.Driver.metrics /. 1e6))
             all_patterns)
      table1_schemes
  in
  Table.print
    ~header:("Scheme" :: List.map pattern_name all_patterns)
    ~rows ()

let goodput_dist base scheme pat =
  let r = result base scheme pat in
  let d = Distribution.create () in
  List.iter
    (fun (f : Metrics.flow_record) ->
      Distribution.add d (f.goodput_bps /. 1e9))
    (Metrics.completed_flows r.Driver.metrics);
  d

let print_fig8 base =
  Render.heading "Figure 8: goodput distributions (normalized to 1 Gbps)";
  List.iter
    (fun pat ->
      Render.subheading
        (Printf.sprintf "Fig 8 CDF, %s pattern" (pattern_name pat));
      Render.cdf_table
        (List.map
           (fun s -> (Scheme.name s, goodput_dist base s pat))
           table1_schemes))
    [ Permutation; Incast ];
  List.iter
    (fun pat ->
      Render.subheading
        (Printf.sprintf "Fig 8 locality breakdown, %s pattern"
           (pattern_name pat));
      List.iter
        (fun scheme ->
          let r = result base scheme pat in
          let by_loc = Metrics.goodputs_by_locality r.Driver.metrics in
          Render.five_number_table
            ~value_header:(Scheme.name scheme)
            (List.map
               (fun (loc, d) ->
                 let scaled = Distribution.create () in
                 Array.iter
                   (fun v -> Distribution.add scaled (v /. 1e9))
                   (Distribution.values d);
                 (Topology.locality_name loc, scaled))
               by_loc))
        bar_schemes)
    [ Permutation; Incast ]

let print_fig9 base =
  Render.heading "Figure 9: job completion time CDF (ms, Incast pattern)";
  Render.cdf_table
    (List.map
       (fun s ->
         let r = result base s Incast in
         (Scheme.name s, Metrics.job_times_ms r.Driver.metrics))
       table1_schemes)

let print_fig10 base =
  Render.heading "Figure 10: RTT distributions of large flows (ms)";
  List.iter
    (fun pat ->
      Render.subheading (pattern_name pat);
      List.iter
        (fun scheme ->
          let r = result base scheme pat in
          Render.five_number_table
            ~value_header:(Scheme.name scheme)
            (List.map
               (fun (loc, d) -> (Topology.locality_name loc, d))
               (Metrics.rtts_by_locality r.Driver.metrics)))
        bar_schemes)
    all_patterns

let print_fig11 base =
  Render.heading "Figure 11: link utilization by layer";
  List.iter
    (fun pat ->
      Render.subheading (pattern_name pat);
      List.iter
        (fun scheme ->
          let r = result base scheme pat in
          Render.five_number_table
            ~value_header:(Scheme.name scheme)
            (Driver.utilization_by_layer r))
        bar_schemes)
    all_patterns

let print_table3 base =
  Render.heading "Table 3: average job completion time (Incast pattern)";
  let rows =
    List.map
      (fun scheme ->
        let r = result base scheme Incast in
        let jobs = Metrics.job_times_ms r.Driver.metrics in
        [
          Scheme.name scheme;
          (if Distribution.is_empty jobs then "--"
           else Table.fixed 0 (Distribution.mean jobs));
          string_of_int (Distribution.count jobs);
          Table.fixed 1
            (100. *. Metrics.jobs_over_ms r.Driver.metrics 300.);
        ])
      table1_schemes
  in
  Table.print
    ~header:[ "Scheme"; "Mean JCT (ms)"; "Jobs done"; "> 300 ms (%)" ]
    ~rows ()
