module Time = Xmp_engine.Time
module Scheme = Xmp_workload.Scheme
module Driver = Xmp_workload.Driver
module Metrics = Xmp_workload.Metrics
module Flow_size = Xmp_workload.Flow_size
module Open_loop = Xmp_workload.Open_loop

(* Open-loop workload scenarios: FCT slowdowns under Poisson arrivals
   with empirical flow sizes, and the closed-loop sweep patterns that
   ride on the same Driver. Flow sizes follow the repo-wide ×1/32
   convention for paper sizes (see Driver.segs_of_mb). *)

let websearch_k = 8

let websearch_spec ~scale =
  {
    (Run_spec.workload (Xmp_net.Fabric.Fat_tree websearch_k) (Scheme.xmp 2)
       Run_spec.Websearch)
    with
    horizon = Time.of_float_s (0.25 *. scale);
    drain = Time.of_float_s (0.5 *. scale);
  }

let print_open_loop (r : Open_loop.result) =
  Render.say
    (Printf.sprintf "flows: %d launched, %d completed, %d truncated"
       r.Open_loop.launched r.Open_loop.completed r.Open_loop.truncated);
  Render.say
    (Printf.sprintf "events: %d (portal mail %d)" r.Open_loop.events
       r.Open_loop.mail);
  Render.five_number_table ~value_header:"FCT slowdown"
    (Metrics.fct_slowdowns r.Open_loop.metrics)

let print_websearch ~scale () =
  let spec = websearch_spec ~scale in
  let config = Run_spec.config spec in
  Render.heading
    (Printf.sprintf
       "Open-loop web-search workload: k=%d, %s, load %.2f, %s sizes"
       websearch_k
       (Scheme.name config.Open_loop.scheme)
       config.Open_loop.load
       (Flow_size.name config.Open_loop.sizes))
  ;
  print_open_loop (Run_spec.simulate spec)

let sweep_schemes = [ Scheme.dctcp; Scheme.xmp 2 ]

let incast_sweep_fanouts = [ 2; 4; 8 ]

let incast_sweep_config (base : Run_spec.base) scheme =
  {
    (Run_spec.driver_config base scheme Run_spec.Incast) with
    Driver.pattern =
      Driver.Incast_sweep
        {
          jobs = base.Run_spec.incast_jobs;
          fanouts = incast_sweep_fanouts;
          request_segments = 2;
          response_segments = 45;
        };
  }

let print_incast_sweep (base : Run_spec.base) =
  Render.heading "Incast sweep: job completion time (ms) across fanout";
  List.iter
    (fun scheme ->
      Render.subheading (Scheme.name scheme);
      let r = Driver.run (incast_sweep_config base scheme) in
      Render.five_number_table ~value_header:"job ms"
        (List.map
           (fun (fanout, d) -> (Printf.sprintf "fanout %d" fanout, d))
           (Metrics.job_times_by_fanout r.Driver.metrics)))
    sweep_schemes

let shuffle_config (base : Run_spec.base) scheme =
  let segments =
    Stdlib.max 1
      (int_of_float (Float.round (45. *. base.Run_spec.size_scale)))
  in
  {
    (Run_spec.driver_config base scheme Run_spec.Permutation) with
    Driver.pattern = Driver.All_to_all { segments };
  }

let print_shuffle (base : Run_spec.base) =
  Render.heading "All-to-all shuffle: goodput of n(n-1) concurrent flows";
  List.iter
    (fun scheme ->
      Render.subheading (Scheme.name scheme);
      let r = Driver.run (shuffle_config base scheme) in
      let m = r.Driver.metrics in
      Render.say
        (Printf.sprintf "flows: %d recorded (%d truncated), mean goodput %.3f Mbps"
           (Metrics.n_completed_flows m)
           (Metrics.n_truncated_flows m)
           (Metrics.mean_goodput_bps m /. 1e6));
      Render.five_number_table ~value_header:"goodput Mbps"
        [ ("all flows", Metrics.goodputs m) ])
    sweep_schemes
