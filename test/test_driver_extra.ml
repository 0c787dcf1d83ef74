module Driver = Xmp_workload.Driver
module Metrics = Xmp_workload.Metrics
module Scheme = Xmp_workload.Scheme
module Time = Xmp_engine.Time
module Distribution = Xmp_stats.Distribution

let pure_incast =
  Driver.Incast
    {
      jobs = 2;
      fanout = 8;
      request_segments = 2;
      response_segments = 45;
      bg_mean_segments = 0.;
      bg_cap_segments = 1.;
      bg_shape = 1.5;
    }

let test_pure_incast_no_background () =
  let cfg =
    {
      Driver.default_config with
      pattern = pure_incast;
      horizon = Time.ms 500;
    }
  in
  let r = Driver.run cfg in
  let m = r.Driver.metrics in
  Alcotest.(check int) "no large flows at all" 0
    (Metrics.n_completed_flows m);
  Alcotest.(check bool) "jobs completed" true
    (Distribution.count (Metrics.job_times_ms m) > 5)

let test_pure_incast_faster_than_loaded () =
  let jct pattern =
    let cfg =
      {
        Driver.default_config with
        pattern;
        horizon = Time.ms 800;
        assignment = Driver.Uniform (Scheme.xmp 2);
      }
    in
    let r = Driver.run cfg in
    Distribution.mean (Metrics.job_times_ms r.Driver.metrics)
  in
  let clean = jct pure_incast in
  let loaded = jct Driver.incast_scaled in
  Alcotest.(check bool)
    (Printf.sprintf "background load slows jobs (%.1f vs %.1f ms)" clean
       loaded)
    true (clean < loaded)

let test_fanout_monotone () =
  (* more servers per job -> longer completion (and eventually the RTO
     cliff) *)
  let jct fanout =
    let cfg =
      {
        Driver.default_config with
        pattern =
          Driver.Incast
            {
              jobs = 1;
              fanout;
              request_segments = 2;
              response_segments = 45;
              bg_mean_segments = 0.;
              bg_cap_segments = 1.;
              bg_shape = 1.5;
            };
        horizon = Time.sec 1.;
      }
    in
    let r = Driver.run cfg in
    Distribution.percentile (Metrics.job_times_ms r.Driver.metrics) 50.
  in
  let small = jct 2 and large = jct 12 in
  Alcotest.(check bool)
    (Printf.sprintf "fanout 12 slower than 2 (%.1f vs %.1f ms)" large small)
    true (large > small)

let test_permutation_paths_spread () =
  (* XMP-4 permutation must touch every core link eventually *)
  let cfg =
    {
      Driver.default_config with
      assignment = Driver.Uniform (Scheme.xmp 4);
      pattern = Driver.Permutation { min_segments = 200; max_segments = 400 };
      horizon = Time.ms 500;
    }
  in
  let r = Driver.run cfg in
  let core = Xmp_net.Network.links_tagged r.Driver.net "core" in
  let used =
    List.length (List.filter (fun l -> Xmp_net.Link.packets_sent l > 0) core)
  in
  Alcotest.(check bool)
    (Printf.sprintf "most core links used (%d of %d)" used (List.length core))
    true
    (used > List.length core * 3 / 4)

let test_paper_scale_base_fields () =
  let b = Xmp_experiments.Run_spec.paper_scale_base in
  Alcotest.(check int) "k = 8" 8 b.Xmp_experiments.Run_spec.k;
  Alcotest.(check int) "8 jobs" 8 b.Xmp_experiments.Run_spec.incast_jobs;
  Alcotest.(check bool) "larger flows" true
    (b.Xmp_experiments.Run_spec.size_scale
    > Xmp_experiments.Run_spec.default_base
        .Xmp_experiments.Run_spec.size_scale)

let suite =
  [
    Alcotest.test_case "pure incast has no background" `Slow
      test_pure_incast_no_background;
    Alcotest.test_case "background slows jobs" `Slow
      test_pure_incast_faster_than_loaded;
    Alcotest.test_case "fanout slows jobs" `Slow test_fanout_monotone;
    Alcotest.test_case "permutation spreads over core" `Slow
      test_permutation_paths_spread;
    Alcotest.test_case "paper-scale base fields" `Quick
      test_paper_scale_base_fields;
  ]
