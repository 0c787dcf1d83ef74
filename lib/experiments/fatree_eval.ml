(* The §5.2 views: Table 1, Figures 8–11 and Table 3 all read the same
   memoized (scheme, pattern) runs of one base ({!Run_spec.result}). *)

module Scheme = Xmp_workload.Scheme
module Driver = Xmp_workload.Driver
module Metrics = Xmp_workload.Metrics
module Distribution = Xmp_stats.Distribution
module Table = Xmp_stats.Table
module Topology = Xmp_net.Topology

let result = Run_spec.result
let pattern_name = Run_spec.pattern_name

let table1_schemes =
  [ Scheme.dctcp; Scheme.lia 2; Scheme.lia 4; Scheme.xmp 2; Scheme.xmp 4 ]

let bar_schemes =
  [ Scheme.dctcp; Scheme.lia 4; Scheme.xmp 2; Scheme.xmp 4 ]

let all_patterns = Run_spec.[ Permutation; Random; Incast ]

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
    Run_spec.[ Permutation; Incast ];
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
    Run_spec.[ Permutation; Incast ]

let print_fig9 base =
  Render.heading "Figure 9: job completion time CDF (ms, Incast pattern)";
  Render.cdf_table
    (List.map
       (fun s ->
         let r = result base s Run_spec.Incast in
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
        let r = result base scheme Run_spec.Incast in
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
