module Pareto = Xmp_workload.Pareto
module Scheme = Xmp_workload.Scheme
module Driver = Xmp_workload.Driver
module Metrics = Xmp_workload.Metrics
module Flow_size = Xmp_workload.Flow_size
module Arrivals = Xmp_workload.Arrivals
module Open_loop = Xmp_workload.Open_loop
module Time = Xmp_engine.Time
module Distribution = Xmp_stats.Distribution

(* ----- Pareto ----- *)

let test_pareto_scale () =
  let p = Pareto.create ~shape:1.5 ~mean:300. ~cap:1200. in
  (* The unbounded-Pareto scale would be mean·(shape−1)/shape = 100; the
     bounded solve compensates for the capped tail, so the root sits
     strictly above that and below the cap. *)
  let x_m = Pareto.scale p in
  Alcotest.(check bool) "above unbounded scale" true (x_m > 100.);
  Alcotest.(check bool) "below cap" true (x_m < 1200.);
  (* Closed-form mean of the capped sampler at the solved scale must hit
     the configured mean: E[X] = 3·x_m − 2·x_m^1.5·cap^−0.5 for α=1.5. *)
  let analytic = (3. *. x_m) -. (2. *. (x_m ** 1.5) /. Float.sqrt 1200.) in
  Alcotest.(check (float 1e-6)) "capped mean solves to 300" 300. analytic;
  (* A cap far in the tail reduces to the unbounded formula. *)
  let loose = Pareto.create ~shape:1.5 ~mean:300. ~cap:1e12 in
  Alcotest.(check (float 1e-3)) "loose cap ~ unbounded" 100. (Pareto.scale loose)

let test_pareto_bounded_mean_statistical () =
  (* Tight cap (4× mean): the unbounded-scale formula would miss low by
     ~15% here; the bounded solve must land within ±2% over 100k draws. *)
  let p = Pareto.create ~shape:1.5 ~mean:300. ~cap:1200. in
  let rng = Random.State.make [| 42 |] in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Pareto.sample p rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "capped empirical mean %.1f within 2%% of 300" mean)
    true
    (Float.abs (mean -. 300.) /. 300. < 0.02);
  (* Integer sampler: probabilistic rounding keeps the mean unbiased. *)
  let sum_int = ref 0 in
  for _ = 1 to n do
    sum_int := !sum_int + Pareto.sample_int p rng
  done;
  let mean_int = float_of_int !sum_int /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "integer empirical mean %.1f within 2%% of 300" mean_int)
    true
    (Float.abs (mean_int -. 300.) /. 300. < 0.02)

let test_pareto_validation () =
  Alcotest.check_raises "shape <= 1"
    (Invalid_argument "Pareto.create: shape must exceed 1") (fun () ->
      ignore (Pareto.create ~shape:1. ~mean:10. ~cap:20.));
  Alcotest.check_raises "cap below mean"
    (Invalid_argument "Pareto.create: mean/cap") (fun () ->
      ignore (Pareto.create ~shape:2. ~mean:10. ~cap:5.))

let prop_pareto_bounds =
  QCheck.Test.make ~count:500 ~name:"pareto samples within [x_m, cap]"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p = Pareto.create ~shape:1.5 ~mean:300. ~cap:1200. in
      let rng = Random.State.make [| seed |] in
      let x = Pareto.sample p rng in
      x >= Pareto.scale p -. 1e-9 && x <= 1200. +. 1e-9)

let test_pareto_mean_reasonable () =
  let p = Pareto.create ~shape:1.5 ~mean:300. ~cap:100_000. in
  let rng = Random.State.make [| 7 |] in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Pareto.sample p rng
  done;
  let mean = !sum /. float_of_int n in
  (* heavy tail: generous tolerance, but the right ballpark *)
  Alcotest.(check bool) "empirical mean near 300" true
    (mean > 180. && mean < 420.)

let test_pareto_sample_int () =
  let p = Pareto.create ~shape:1.5 ~mean:2. ~cap:4. in
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "at least 1" true (Pareto.sample_int p rng >= 1)
  done

(* ----- Scheme ----- *)

let test_scheme_names () =
  Alcotest.(check string) "dctcp" "DCTCP" (Scheme.name Scheme.dctcp);
  Alcotest.(check string) "tcp" "TCP" (Scheme.name Scheme.reno);
  Alcotest.(check string) "lia" "LIA-4" (Scheme.name (Scheme.lia 4));
  Alcotest.(check string) "xmp" "XMP-2" (Scheme.name (Scheme.xmp 2));
  Alcotest.(check string) "olia" "OLIA-3" (Scheme.name (Scheme.olia 3));
  Alcotest.(check string) "balia" "BALIA-2" (Scheme.name (Scheme.balia 2));
  Alcotest.(check string) "veno" "VENO-2" (Scheme.name (Scheme.veno 2));
  Alcotest.(check string) "amp" "AMP-4" (Scheme.name (Scheme.amp 4))

let test_scheme_parse () =
  Alcotest.(check bool) "roundtrip" true
    (List.for_all
       (fun s -> Scheme.of_name (Scheme.name s) = Some s)
       [
         Scheme.dctcp; Scheme.reno; Scheme.lia 2; Scheme.olia 8; Scheme.xmp 1;
         Scheme.balia 2; Scheme.veno 3; Scheme.amp 2;
       ]);
  Alcotest.(check bool) "case insensitive" true
    (Scheme.of_name "xmp-4" = Some (Scheme.xmp 4));
  Alcotest.(check bool) "balia case" true
    (Scheme.of_name "balia-2" = Some (Scheme.balia 2));
  Alcotest.(check bool) "reno alias" true (Scheme.of_name "reno" = Some Scheme.reno);
  Alcotest.(check bool) "garbage" true (Scheme.of_name "QUIC" = None);
  Alcotest.(check bool) "bad count" true (Scheme.of_name "XMP-0" = None);
  (* the suffix must be a bare decimal: int_of_string's hex, sign and
     underscore spellings — and trailing garbage — are all rejected *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" s)
        true
        (Scheme.of_name s = None))
    [
      "XMP-2x"; "XMP-0x2"; "XMP-2_"; "XMP-+2"; "XMP--2"; "LIA-2 3"; "VENO-";
      "AMP-2.0"; "BALIA"; "VENO-1e1";
    ];
  (* beta, K and the RTO floor are fields of the run: a scheme word
     carries no tunables *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" s)
        true
        (Scheme.of_name s = None))
    [
      "XMP-2:"; "XMP-2:beta=6"; "XMP-2:k=20"; "VENO-2:beta=2.5";
      "AMP-2:ect=classic"; "XMP-2:rtomin=1000000"; "DCTCP:rtomax=200000000";
    ];
  Alcotest.(check bool) "constructor rejects no subflows" true
    (match Scheme.lia 0 with exception Invalid_argument _ -> true | _ -> false)

let test_scheme_properties () =
  Alcotest.(check int) "dctcp single" 1 (Scheme.n_subflows Scheme.dctcp);
  Alcotest.(check int) "xmp-4" 4 (Scheme.n_subflows (Scheme.xmp 4));
  Alcotest.(check int) "amp-3" 3 (Scheme.n_subflows (Scheme.amp 3));
  Alcotest.(check bool) "ecn schemes" true
    (Scheme.uses_ecn Scheme.dctcp
    && Scheme.uses_ecn (Scheme.xmp 2)
    && Scheme.uses_ecn (Scheme.amp 2));
  Alcotest.(check bool) "loss schemes" true
    ((not (Scheme.uses_ecn Scheme.reno))
    && (not (Scheme.uses_ecn (Scheme.lia 2)))
    && (not (Scheme.uses_ecn (Scheme.balia 2)))
    && not (Scheme.uses_ecn (Scheme.veno 2)));
  Alcotest.(check bool) "multipath flag" true
    (Scheme.n_subflows (Scheme.lia 2) > 1 && not (Scheme.n_subflows Scheme.dctcp > 1))

let test_scheme_config () =
  let o = Scheme.default_overrides in
  let xmp_cfg = Scheme.tcp_config (Scheme.xmp 2) o in
  Alcotest.(check bool) "xmp is ect" true xmp_cfg.Xmp_transport.Tcp.ect;
  Alcotest.(check bool) "xmp echo capped at 3" true
    (xmp_cfg.Xmp_transport.Tcp.echo = Xmp_transport.Tcp.Counted (Some 3));
  let dctcp_cfg = Scheme.tcp_config Scheme.dctcp o in
  Alcotest.(check bool) "dctcp echo exact" true
    (dctcp_cfg.Xmp_transport.Tcp.echo = Xmp_transport.Tcp.Counted None);
  let amp_cfg = Scheme.tcp_config (Scheme.amp 2) o in
  Alcotest.(check bool) "amp is ect with exact echo" true
    (amp_cfg.Xmp_transport.Tcp.ect
    && amp_cfg.Xmp_transport.Tcp.echo = Xmp_transport.Tcp.Counted None);
  let tcp_cfg = Scheme.tcp_config Scheme.reno o in
  Alcotest.(check bool) "tcp not ect" false tcp_cfg.Xmp_transport.Tcp.ect;
  Alcotest.(check bool) "balia and veno not ect" false
    ((Scheme.tcp_config (Scheme.balia 2) o).Xmp_transport.Tcp.ect
    || (Scheme.tcp_config (Scheme.veno 2) o).Xmp_transport.Tcp.ect);
  let custom = { o with Scheme.rto_min = Time.ms 10 } in
  Alcotest.(check int) "rto override" (Time.ms 10)
    (Scheme.tcp_config Scheme.reno custom).Xmp_transport.Tcp.rto_min

let prop_pick_paths_distinct =
  QCheck.Test.make ~count:300 ~name:"pick_paths: distinct, in range"
    QCheck.(triple (int_range 1 20) (int_range 1 10) (int_bound 10_000))
    (fun (available, wanted, seed) ->
      let rng = Random.State.make [| seed |] in
      let paths = Scheme.pick_paths ~rng ~available ~wanted in
      List.length paths = Stdlib.min wanted available
      && List.length (List.sort_uniq compare paths) = List.length paths
      && List.for_all (fun p -> p >= 0 && p < available) paths)

(* ----- Metrics ----- *)

let flow_record ?(scheme = Scheme.xmp 2) ?(locality = Xmp_net.Fat_tree.Inter_pod)
    ?(goodput = 5e8) flow =
  {
    Metrics.flow;
    scheme;
    src = 0;
    dst = 4;
    locality;
    size_segments = 100;
    started = 0;
    finished = Time.ms 10;
    goodput_bps = goodput;
    truncated = false;
  }

let test_metrics_goodput () =
  let m = Metrics.create ~keep_flows:true ~rtt_subsample:1 () in
  Metrics.record_flow m (flow_record ~goodput:4e8 1);
  Metrics.record_flow m (flow_record ~goodput:6e8 2);
  Alcotest.(check (float 1e-3)) "mean" 5e8 (Metrics.mean_goodput_bps m);
  Alcotest.(check int) "count" 2 (Metrics.n_completed_flows m)

let test_metrics_by_scheme () =
  let m = Metrics.create ~keep_flows:true ~rtt_subsample:1 () in
  Metrics.record_flow m (flow_record ~scheme:(Scheme.xmp 2) ~goodput:4e8 1);
  Metrics.record_flow m (flow_record ~scheme:(Scheme.lia 2) ~goodput:2e8 2);
  Alcotest.(check (float 1e-3)) "xmp" 4e8
    (Metrics.mean_goodput_bps_of_scheme m (Scheme.xmp 2));
  Alcotest.(check (float 1e-3)) "lia" 2e8
    (Metrics.mean_goodput_bps_of_scheme m (Scheme.lia 2));
  Alcotest.(check (float 1e-3)) "absent scheme" 0.
    (Metrics.mean_goodput_bps_of_scheme m Scheme.dctcp)

let test_metrics_rtt_subsampling () =
  let m = Metrics.create ~keep_flows:true ~rtt_subsample:4 () in
  for _ = 1 to 16 do
    Metrics.record_rtt m ~locality:Xmp_net.Fat_tree.Inner_rack (Time.us 100)
  done;
  match Metrics.rtts_by_locality m with
  | [ (loc, d) ] ->
    Alcotest.(check bool) "inner rack" true (loc = Xmp_net.Fat_tree.Inner_rack);
    Alcotest.(check int) "1 in 4 kept" 4 (Distribution.count d)
  | _ -> Alcotest.fail "expected one locality"

let test_metrics_jobs () =
  let m = Metrics.create ~keep_flows:true ~rtt_subsample:1 () in
  Metrics.record_job m ~fanout:8 (Time.ms 50);
  Metrics.record_job m ~fanout:8 (Time.ms 350);
  Alcotest.(check (float 1e-6)) "over 300" 0.5 (Metrics.jobs_over_ms m 300.);
  Alcotest.(check int) "count" 2 (Distribution.count (Metrics.job_times_ms m))

(* ----- Driver (mini end-to-end runs) ----- *)

let mini_config pattern scheme =
  {
    Driver.default_config with
    horizon = Time.ms 300;
    assignment = Driver.Uniform scheme;
    pattern;
  }

let small_permutation =
  Driver.Permutation { min_segments = 50; max_segments = 100 }

let small_random =
  Driver.Random_pattern
    { mean_segments = 60.; cap_segments = 200.; shape = 1.5; max_inbound = 4 }

let small_incast =
  Driver.Incast
    {
      jobs = 2;
      fanout = 8;
      request_segments = 2;
      response_segments = 45;
      bg_mean_segments = 60.;
      bg_cap_segments = 200.;
      bg_shape = 1.5;
    }

let test_driver_permutation () =
  let r = Driver.run (mini_config small_permutation (Scheme.xmp 2)) in
  let m = r.Driver.metrics in
  Alcotest.(check bool) "flows completed" true
    (Metrics.n_completed_flows m >= 16);
  Alcotest.(check bool) "goodput sane" true
    (Metrics.mean_goodput_bps m > 1e7 && Metrics.mean_goodput_bps m < 1e9);
  (* permutation: every host is a source of the first wave *)
  let srcs =
    List.sort_uniq compare
      (List.map (fun (f : Metrics.flow_record) -> f.src)
         (Metrics.completed_flows m))
  in
  Alcotest.(check int) "all 16 hosts sent" 16 (List.length srcs)

let test_driver_permutation_never_self () =
  let r = Driver.run (mini_config small_permutation Scheme.dctcp) in
  List.iter
    (fun (f : Metrics.flow_record) ->
      Alcotest.(check bool) "src <> dst" true (f.src <> f.dst))
    (Metrics.completed_flows r.Driver.metrics)

let test_driver_random_inbound_cap () =
  let r = Driver.run (mini_config small_random (Scheme.xmp 2)) in
  let m = r.Driver.metrics in
  Alcotest.(check bool) "flows completed" true
    (Metrics.n_completed_flows m > 16)

let test_driver_incast () =
  let r = Driver.run (mini_config small_incast Scheme.dctcp) in
  let m = r.Driver.metrics in
  Alcotest.(check bool) "jobs completed" true
    (Distribution.count (Metrics.job_times_ms m) > 0);
  (* background flows never share a rack *)
  List.iter
    (fun (f : Metrics.flow_record) ->
      Alcotest.(check bool) "not inner rack" true
        (f.locality <> Xmp_net.Fat_tree.Inner_rack))
    (Metrics.completed_flows m)

let test_driver_split_assignment () =
  let cfg =
    {
      (mini_config small_random (Scheme.xmp 2)) with
      Driver.assignment = Driver.Split (Scheme.xmp 2, Scheme.lia 2);
    }
  in
  let r = Driver.run cfg in
  let m = r.Driver.metrics in
  let schemes =
    List.sort_uniq compare
      (List.map (fun (f : Metrics.flow_record) -> f.scheme)
         (Metrics.completed_flows m))
  in
  Alcotest.(check int) "both schemes present" 2 (List.length schemes);
  (* even hosts run XMP, odd hosts run LIA *)
  List.iter
    (fun (f : Metrics.flow_record) ->
      let expect = if f.src mod 2 = 0 then Scheme.xmp 2 else Scheme.lia 2 in
      Alcotest.(check bool) "host parity assignment" true (f.scheme = expect))
    (Metrics.completed_flows m)

let test_driver_determinism () =
  let run () =
    let r = Driver.run (mini_config small_permutation (Scheme.xmp 2)) in
    ( Metrics.n_completed_flows r.Driver.metrics,
      r.Driver.events,
      Metrics.mean_goodput_bps r.Driver.metrics )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

(* Driver.run releases its engine once the result is built: nothing is
   left pending and no endpoint stays registered, while the result's
   network still reads its links. 384 plain-TCP connections at t = 0,
   as in the incast.k4 benchmark set-up. *)
let test_driver_releases_engine () =
  let r =
    Driver.run
      {
        Driver.default_config with
        horizon = Time.zero;
        pattern =
          Driver.Incast
            {
              jobs = 48;
              fanout = 8;
              request_segments = 2;
              response_segments = 45;
              bg_mean_segments = 0.;
              bg_cap_segments = 0.;
              bg_shape = 1.5;
            };
      }
  in
  let net = r.Driver.net in
  Alcotest.(check int) "nothing pending" 0
    (Xmp_engine.Sim.pending (Xmp_net.Network.sim net));
  Alcotest.(check int) "no endpoint bound" 0
    (Xmp_net.Network.endpoint_stats net).Hashtbl.num_bindings;
  Alcotest.(check int) "links still read" 96
    (List.length (Xmp_net.Network.links net));
  Alcotest.(check int) "three layers" 3
    (List.length (Driver.utilization_by_layer r))

let test_driver_utilization () =
  let r = Driver.run (mini_config small_permutation (Scheme.xmp 4)) in
  let layers = Driver.utilization_by_layer r in
  Alcotest.(check int) "three layers" 3 (List.length layers);
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "utilization within [0,1]" true
        (Distribution.percentile d 0. >= 0. && Distribution.max d <= 1.0001))
    layers

(* ----- Flow_size ----- *)

let test_flow_size_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Flow_size.of_points: empty")
    (fun () -> ignore (Flow_size.of_points ~name:"x" []));
  Alcotest.check_raises "last prob"
    (Invalid_argument "Flow_size.of_points: last probability must be 1")
    (fun () -> ignore (Flow_size.of_points ~name:"x" [ (1., 0.5) ]));
  Alcotest.check_raises "decreasing sizes"
    (Invalid_argument "Flow_size.of_points: points must be nondecreasing")
    (fun () ->
      ignore (Flow_size.of_points ~name:"x" [ (5., 0.1); (2., 1.) ]));
  Alcotest.check_raises "sub-segment size"
    (Invalid_argument "Flow_size.of_points: sizes must be at least one segment")
    (fun () -> ignore (Flow_size.of_points ~name:"x" [ (0.2, 1.) ]));
  Alcotest.check_raises "nan size"
    (Invalid_argument "Flow_size.of_points: sizes must be finite") (fun () ->
      ignore
        (Flow_size.of_points ~name:"x"
           [ (1., 0.); (Float.nan, 0.5); (100., 1.) ]));
  Alcotest.check_raises "infinite size"
    (Invalid_argument "Flow_size.of_points: sizes must be finite") (fun () ->
      ignore (Flow_size.of_points ~name:"x" [ (1., 0.); (Float.infinity, 1.) ]));
  Alcotest.check_raises "nan probability"
    (Invalid_argument "Flow_size.of_points: probabilities must lie in [0,1]")
    (fun () ->
      ignore
        (Flow_size.of_points ~name:"x"
           [ (1., 0.); (50., Float.nan); (100., 1.) ]))

let test_flow_size_sampling () =
  let rng = Random.State.make [| 17 |] in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let s = Flow_size.sample Flow_size.web_search rng in
    Alcotest.(check bool) "within table range" true (s >= 1 && s <= 20_000);
    sum := !sum +. float_of_int s
  done;
  let mean = !sum /. float_of_int n in
  let expect = Flow_size.mean_segments Flow_size.web_search in
  Alcotest.(check bool)
    (Printf.sprintf "empirical mean %.1f within 5%% of %.1f" mean expect)
    true
    (Float.abs (mean -. expect) /. expect < 0.05);
  (* data mining: half the mass is a point mass at one segment, and
     nearest-segment rounding pulls the first half of the 1→2 knot
     interval down to 1 as well, so the expected fraction is 0.55 *)
  let ones = ref 0 in
  for _ = 1 to n do
    if Flow_size.sample Flow_size.data_mining rng = 1 then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "single-segment fraction %.3f near 0.55" frac)
    true
    (frac > 0.52 && frac < 0.58)

let test_flow_size_scaled () =
  (* no knot hits the ≥1-segment clamp at ×2, so the mean is exactly
     linear in the factor *)
  let m = Flow_size.mean_segments Flow_size.web_search in
  let m2 = Flow_size.mean_segments (Flow_size.scaled Flow_size.web_search 2.) in
  Alcotest.(check (float 1e-9)) "mean scales linearly" (2. *. m) m2;
  Alcotest.check_raises "factor must be positive"
    (Invalid_argument "Flow_size.scaled: factor") (fun () ->
      ignore (Flow_size.scaled Flow_size.web_search 0.))

let test_flow_size_of_file () =
  let path = Filename.temp_file "xmp_cdf" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# tiny CDF\n1 0\n10 0.5\n\n100 1\n";
      close_out oc;
      let t = Flow_size.of_file path in
      (* trapezoid: 0.5·(1+10)/2 + 0.5·(10+100)/2 = 30.25 *)
      Alcotest.(check (float 1e-9)) "mean from file" 30.25
        (Flow_size.mean_segments t);
      let rng = Random.State.make [| 5 |] in
      for _ = 1 to 1000 do
        let s = Flow_size.sample t rng in
        Alcotest.(check bool) "file sample in range" true (s >= 1 && s <= 100)
      done);
  Alcotest.(check bool) "malformed file raises" true
    (let bad = Filename.temp_file "xmp_cdf" ".txt" in
     Fun.protect
       ~finally:(fun () -> Sys.remove bad)
       (fun () ->
         let oc = open_out bad in
         output_string oc "1 0 extra\n";
         close_out oc;
         match Flow_size.of_file bad with
         | _ -> false
         | exception Invalid_argument _ -> true))

(* ----- Arrivals ----- *)

let test_poisson_interarrivals () =
  (* One host at 50k flows/s over 2 simulated seconds: the exponential
     gaps must show the Poisson signature — mean 20 µs and a coefficient
     of variation of 1 — within statistical tolerance. *)
  let rate = 50_000. in
  let t = Arrivals.create ~seed:9 ~hosts:1 ~rate in
  let times = ref [] in
  let n = ref 0 in
  let next =
    Arrivals.until t ~target:(Time.sec 2.) ~f:(fun ~host:_ ~at ~rng:_ ->
        times := at :: !times;
        incr n)
  in
  Alcotest.(check bool) "next beyond target" true
    (Time.compare next (Time.sec 2.) > 0);
  let times = Array.of_list (List.rev !times) in
  let count = Array.length times in
  Alcotest.(check bool)
    (Printf.sprintf "arrival count %d near 100k" count)
    true
    (count > 97_000 && count < 103_000);
  let gaps =
    Array.init count (fun i ->
        let prev = if i = 0 then Time.zero else times.(i - 1) in
        Time.to_float_s (Time.sub times.(i) prev))
  in
  let mean = Array.fold_left ( +. ) 0. gaps /. float_of_int count in
  let var =
    Array.fold_left (fun acc g -> acc +. ((g -. mean) ** 2.)) 0. gaps
    /. float_of_int count
  in
  let cv = Float.sqrt var /. mean in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.2fus near 20us" (mean *. 1e6))
    true
    (Float.abs (mean -. (1. /. rate)) *. rate < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "coefficient of variation %.3f near 1" cv)
    true
    (Float.abs (cv -. 1.) < 0.02)

let test_arrivals_per_host_streams () =
  (* Host 0's schedule is a function of (seed, rate) alone: adding more
     hosts must not perturb it — the property that keeps generated
     workloads identical across shard/job layouts. *)
  let collect ~hosts =
    let t = Arrivals.create ~seed:3 ~hosts ~rate:20_000. in
    let acc = ref [] in
    ignore
      (Arrivals.until t ~target:(Time.ms 50) ~f:(fun ~host ~at ~rng:_ ->
           if host = 0 then acc := at :: !acc));
    List.rev !acc
  in
  let alone = collect ~hosts:1 in
  let crowded = collect ~hosts:8 in
  Alcotest.(check bool) "non-trivial schedule" true (List.length alone > 100);
  Alcotest.(check bool) "host-0 schedule independent of host count" true
    (alone = crowded);
  (* pops arrive in nondecreasing time order *)
  let t = Arrivals.create ~seed:3 ~hosts:8 ~rate:20_000. in
  let last = ref Time.zero in
  ignore
    (Arrivals.until t ~target:(Time.ms 20) ~f:(fun ~host:_ ~at ~rng:_ ->
         Alcotest.(check bool) "nondecreasing" true
           (Time.compare !last at <= 0);
         last := at));
  let t2 = Arrivals.create ~seed:3 ~hosts:2 ~rate:20_000. in
  Arrivals.stop t2;
  let fired = ref false in
  let next =
    Arrivals.until t2 ~target:(Time.sec 10.) ~f:(fun ~host:_ ~at:_ ~rng:_ ->
        fired := true)
  in
  Alcotest.(check bool) "stopped stream yields nothing" false !fired;
  Alcotest.(check bool) "stopped stream exhausted" true
    (Time.is_infinite next);
  let next =
    Arrivals.until t2 ~target:Time.infinity ~f:(fun ~host:_ ~at:_ ~rng:_ ->
        fired := true)
  in
  Alcotest.(check bool) "stopped stream yields nothing by infinity" false
    !fired;
  Alcotest.(check bool) "stopped stream exhausted by infinity" true
    (Time.is_infinite next)

(* The heap pops what a scan over every host would: the earliest
   arrival, the lowest host index first among equal times. 300 hosts at
   a rate whose 1 ns gaps collide often; the callback draws from the
   host's stream as Open_loop does, and the reference draws the same. *)
let test_arrivals_match_scan () =
  let hosts = 300 and rate = 2e8 and seed = 5 in
  let popped = ref [] in
  let next =
    Arrivals.until (Arrivals.create ~seed ~hosts ~rate) ~target:(Time.ns 200)
      ~f:(fun ~host ~at ~rng ->
        popped := (at, host, Random.State.int rng 1000) :: !popped)
  in
  (* reference: the same streams, a min-scan per pop *)
  let gap rng =
    let u = 1. -. Random.State.float rng 1. in
    Stdlib.max 1 (int_of_float (Float.round (-.Float.log u /. rate *. 1e9)))
  in
  let rngs =
    Array.init hosts (fun h -> Random.State.make [| seed; h; 0x4a5 |])
  in
  let at = Array.map gap rngs in
  let expected = ref [] in
  let rec scan () =
    let best = ref 0 in
    Array.iteri (fun h t -> if t < at.(!best) then best := h) at;
    let h = !best in
    if at.(h) > Time.ns 200 then at.(h)
    else begin
      let t = at.(h) in
      at.(h) <- t + gap rngs.(h);
      expected := (t, h, Random.State.int rngs.(h) 1000) :: !expected;
      scan ()
    end
  in
  let expected_next = scan () in
  let ties =
    let rec count acc = function
      | (a, _, _) :: ((b, _, _) :: _ as rest) ->
        count (if a = b then acc + 1 else acc) rest
      | _ -> acc
    in
    count 0 !expected
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d arrivals, %d equal-time ties" (List.length !expected)
       ties)
    true
    (List.length !expected > 1_000 && ties > 100);
  Alcotest.(check (list (triple int int int)))
    "same (time, host, draw) order" (List.rev !expected) (List.rev !popped);
  Alcotest.(check int) "same earliest remaining" expected_next next

(* ----- Metrics: streaming FCT slowdowns ----- *)

let test_metrics_fct_buckets () =
  let m = Metrics.create ~rtt_subsample:1 () in
  (* 3 segments = 4380 B -> 0-10KB; 100 segments = 146 kB -> 100KB-1MB *)
  Metrics.record_fct m ~size_segments:3 ~fct:(Time.ms 2) ~ideal:(Time.ms 1);
  Metrics.record_fct m ~size_segments:100 ~fct:(Time.ms 30) ~ideal:(Time.ms 10);
  Metrics.record_fct m ~size_segments:100 ~fct:(Time.ms 10) ~ideal:(Time.ms 10);
  let buckets = Metrics.fct_slowdowns m in
  Alcotest.(check (list string))
    "bucket labels, small to large, aggregate last"
    [ "0-10KB"; "100KB-1MB"; "all" ]
    (List.map fst buckets);
  let by label = List.assoc label buckets in
  Alcotest.(check int) "small count" 1 (Distribution.count (by "0-10KB"));
  Alcotest.(check (float 1e-9)) "small slowdown" 2. (Distribution.mean (by "0-10KB"));
  Alcotest.(check (float 1e-9)) "medium mean slowdown" 2.
    (Distribution.mean (by "100KB-1MB"));
  Alcotest.(check int) "aggregate count" 3 (Distribution.count (by "all"));
  Alcotest.check_raises "ideal must be positive"
    (Invalid_argument "Metrics.record_fct: ideal must be positive") (fun () ->
      Metrics.record_fct m ~size_segments:1 ~fct:(Time.ms 1) ~ideal:Time.zero);
  let csv = Metrics.fct_summary_csv m in
  Alcotest.(check bool) "summary csv has header" true
    (String.length csv > 0
    && String.sub csv 0 (String.index csv '\n')
       = "bucket,samples,mean,p50,p90,p99,max");
  let cdf = Metrics.fct_cdf_csv ~points:10 m in
  Alcotest.(check bool) "cdf csv mentions every bucket" true
    (List.for_all
       (fun (label, _) ->
         let re = label ^ "," in
         let found = ref false in
         let ll = String.length re and cl = String.length cdf in
         for i = 0 to cl - ll do
           if String.sub cdf i ll = re then found := true
         done;
         !found)
       buckets)

let test_metrics_streaming_default () =
  let m = Metrics.create ~rtt_subsample:1 () in
  Alcotest.(check bool) "streaming by default" false (Metrics.keeps_flows m);
  let record ~truncated goodput =
    Metrics.record_flow m
      {
        Metrics.flow = 1;
        scheme = Scheme.xmp 2;
        src = 0;
        dst = 5;
        locality = Xmp_net.Fat_tree.Inter_pod;
        size_segments = 100;
        started = Time.zero;
        finished = Time.ms 10;
        goodput_bps = goodput;
        truncated;
      }
  in
  record ~truncated:false 1e8;
  record ~truncated:false 2e8;
  record ~truncated:true 5e7;
  Alcotest.(check int) "flows counted" 3 (Metrics.n_completed_flows m);
  Alcotest.(check int) "truncated counted" 1 (Metrics.n_truncated_flows m);
  Alcotest.(check bool) "mean maintained" true
    (Float.abs (Metrics.mean_goodput_bps m -. (3.5e8 /. 3.)) < 1.);
  Alcotest.check_raises "per-flow records not kept"
    (Invalid_argument
       "Metrics.completed_flows: per-flow records not kept (create with \
        ~keep_flows:true)") (fun () -> ignore (Metrics.completed_flows m));
  (* merge folds streaming aggregates *)
  let m2 = Metrics.create ~rtt_subsample:1 () in
  Metrics.record_fct m2 ~size_segments:3 ~fct:(Time.ms 2) ~ideal:(Time.ms 1);
  Metrics.record_fct m ~size_segments:3 ~fct:(Time.ms 4) ~ideal:(Time.ms 1);
  Metrics.merge ~into:m m2;
  Alcotest.(check int) "merged flow count" 3 (Metrics.n_completed_flows m);
  let all = List.assoc "all" (Metrics.fct_slowdowns m) in
  Alcotest.(check int) "merged fct samples" 2 (Distribution.count all);
  Alcotest.(check (float 1e-9)) "merged fct mean" 3. (Distribution.mean all)

(* ----- Driver: new traffic patterns ----- *)

let test_driver_incast_sweep () =
  let cfg =
    mini_config
      (Driver.Incast_sweep
         {
           jobs = 2;
           fanouts = [ 2; 4 ];
           request_segments = 2;
           response_segments = 20;
         })
      Scheme.dctcp
  in
  let r = Driver.run cfg in
  let by_fanout = Metrics.job_times_by_fanout r.Driver.metrics in
  Alcotest.(check (list int)) "both fanouts sampled, ascending" [ 2; 4 ]
    (List.map fst by_fanout);
  List.iter
    (fun (fanout, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "fanout %d has jobs" fanout)
        true
        (Distribution.count d > 0))
    by_fanout;
  (* sweep jobs are also filed in the aggregate job distribution *)
  Alcotest.(check bool) "aggregate job count covers sweep" true
    (Distribution.count (Metrics.job_times_ms r.Driver.metrics)
    = List.fold_left
        (fun acc (_, d) -> acc + Distribution.count d)
        0 by_fanout);
  Alcotest.check_raises "fanout exceeding hosts"
    (Invalid_argument "Driver: incast sweep fanout exceeds hosts") (fun () ->
      ignore
        (Driver.run
           (mini_config
              (Driver.Incast_sweep
                 {
                   jobs = 1;
                   fanouts = [ 16 ];
                   request_segments = 1;
                   response_segments = 1;
                 })
              Scheme.dctcp)))

let test_driver_all_to_all () =
  let cfg =
    {
      (mini_config (Driver.All_to_all { segments = 10 }) (Scheme.xmp 2)) with
      Driver.horizon = Time.ms 200;
    }
  in
  let r = Driver.run cfg in
  let m = r.Driver.metrics in
  (* 16 hosts: one wave is 240 flows; every recorded flow leaves its host *)
  Alcotest.(check bool) "at least one full shuffle wave" true
    (Metrics.n_completed_flows m >= 240);
  List.iter
    (fun (f : Metrics.flow_record) ->
      Alcotest.(check bool) "never self" true (f.src <> f.dst))
    (Metrics.completed_flows m)

(* ----- Open_loop ----- *)

let small_open_loop =
  {
    Open_loop.default_config with
    Open_loop.fabric = Fat_tree 4;
    horizon = Time.ms 10;
    drain = Time.ms 40;
    sizes = Flow_size.scaled Flow_size.web_search (1. /. 32.);
  }

(* Everything observable about a run, as one string: counts plus both
   FCT exports. Byte-equality of fingerprints is the determinism
   check. *)
let open_loop_fingerprint (r : Open_loop.result) =
  Printf.sprintf "launched=%d completed=%d truncated=%d events=%d mail=%d\n%s\n%s"
    r.Open_loop.launched r.Open_loop.completed r.Open_loop.truncated
    r.Open_loop.events r.Open_loop.mail
    (Metrics.fct_summary_csv r.Open_loop.metrics)
    (Metrics.fct_cdf_csv r.Open_loop.metrics)

(* Spawning a domain latches the runtime into multicore mode for the
   rest of the process, and Unix.fork refuses to run after that —
   which would break the Runner process-pool tests later in this
   binary (see test_shard.ml). So the multi-domain run happens in a
   forked child that ships its fingerprint back through a pipe. *)
let fingerprint_in_child f =
  let r, w = Unix.pipe () in
  flush Stdlib.stdout;
  flush Stdlib.stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let out = try f () with e -> "child raised: " ^ Printexc.to_string e in
    let oc = Unix.out_channel_of_descr w in
    output_string oc out;
    flush oc;
    Unix._exit (if String.length out > 0 then 0 else 1)
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "open-loop child did not exit cleanly");
    out

let test_open_loop_domains_identical () =
  let a = Open_loop.run ~config:small_open_loop ~domains:1 () in
  let four =
    fingerprint_in_child (fun () ->
        open_loop_fingerprint
          (Open_loop.run ~config:small_open_loop ~domains:4 ()))
  in
  Alcotest.(check string) "domains=1 and domains=4 byte-identical"
    (open_loop_fingerprint a) four;
  Alcotest.(check bool) "flows actually ran" true (a.Open_loop.launched > 50);
  Alcotest.(check int) "all flows accounted" a.Open_loop.launched
    (a.Open_loop.completed + a.Open_loop.truncated)

let test_open_loop_max_flows () =
  let config = { small_open_loop with Open_loop.max_flows = Some 25 } in
  let r = Open_loop.run ~config () in
  Alcotest.(check int) "launch cap respected" 25 r.Open_loop.launched;
  Alcotest.(check bool) "capped run still completes flows" true
    (r.Open_loop.completed > 0)

let test_open_loop_ideal_fct () =
  let cfg = Open_loop.default_config in
  let topo =
    Xmp_net.Fat_tree.create
      ~cluster:(Xmp_net.Shard.create ~shards:1 ())
      ~k:8
      ~disc:(fun () ->
        Xmp_net.Queue_disc.create ~policy:Xmp_net.Queue_disc.Droptail
          ~capacity_pkts:100)
      ()
  in
  let locality = topo.Xmp_net.Topology.locality in
  (* k = 8: 4 hosts per rack, 16 per pod *)
  Alcotest.(check bool) "hosts 0 and 1 share a rack" true
    (locality ~src:0 ~dst:1 = Xmp_net.Topology.Inner_rack);
  Alcotest.(check bool) "hosts 0 and 16 sit in different pods" true
    (locality ~src:0 ~dst:16 = Xmp_net.Topology.Inter_pod);
  (* 1 segment inner-rack at 1 Gbps: 11.68 µs transfer + 80 µs RTT *)
  let ideal = Open_loop.ideal_fct topo ~src:0 ~dst:1 ~size_segments:1 in
  Alcotest.(check int) "inner-rack single segment" 91_680 ideal;
  let inter_pod =
    Open_loop.ideal_fct topo ~src:0 ~dst:16 ~size_segments:1
  in
  Alcotest.(check int) "inter-pod adds core+agg legs" (91_680 + 280_000)
    inter_pod;
  (* arrival rate: load · C / E[S] *)
  let expect =
    cfg.Open_loop.load *. 1e9
    /. (Flow_size.mean_segments cfg.Open_loop.sizes *. 1460. *. 8.)
  in
  Alcotest.(check (float 1e-6)) "arrival rate" expect
    (Open_loop.arrival_rate cfg)

let suite =
  [
    Alcotest.test_case "pareto scale" `Quick test_pareto_scale;
    Alcotest.test_case "pareto bounded mean (100k samples)" `Slow
      test_pareto_bounded_mean_statistical;
    Alcotest.test_case "pareto validation" `Quick test_pareto_validation;
    QCheck_alcotest.to_alcotest prop_pareto_bounds;
    Alcotest.test_case "pareto empirical mean" `Quick
      test_pareto_mean_reasonable;
    Alcotest.test_case "pareto integer samples" `Quick test_pareto_sample_int;
    Alcotest.test_case "scheme names" `Quick test_scheme_names;
    Alcotest.test_case "scheme parsing" `Quick test_scheme_parse;
    Alcotest.test_case "scheme properties" `Quick test_scheme_properties;
    Alcotest.test_case "scheme transport configs" `Quick test_scheme_config;
    QCheck_alcotest.to_alcotest prop_pick_paths_distinct;
    Alcotest.test_case "metrics goodput" `Quick test_metrics_goodput;
    Alcotest.test_case "metrics by scheme" `Quick test_metrics_by_scheme;
    Alcotest.test_case "metrics rtt subsampling" `Quick
      test_metrics_rtt_subsampling;
    Alcotest.test_case "metrics jobs" `Quick test_metrics_jobs;
    Alcotest.test_case "driver permutation" `Slow test_driver_permutation;
    Alcotest.test_case "permutation never self" `Slow
      test_driver_permutation_never_self;
    Alcotest.test_case "driver random" `Slow test_driver_random_inbound_cap;
    Alcotest.test_case "driver incast" `Slow test_driver_incast;
    Alcotest.test_case "driver split assignment" `Slow
      test_driver_split_assignment;
    Alcotest.test_case "driver determinism" `Slow test_driver_determinism;
    Alcotest.test_case "driver utilization" `Slow test_driver_utilization;
    Alcotest.test_case "driver releases its engine" `Quick
      test_driver_releases_engine;
    Alcotest.test_case "flow size validation" `Quick test_flow_size_validation;
    Alcotest.test_case "flow size sampling" `Quick test_flow_size_sampling;
    Alcotest.test_case "flow size scaling" `Quick test_flow_size_scaled;
    Alcotest.test_case "flow size from file" `Quick test_flow_size_of_file;
    Alcotest.test_case "poisson interarrivals (mean, CV)" `Slow
      test_poisson_interarrivals;
    Alcotest.test_case "per-host arrival streams" `Quick
      test_arrivals_per_host_streams;
    Alcotest.test_case "arrivals pop as a scan would" `Quick
      test_arrivals_match_scan;
    Alcotest.test_case "metrics fct buckets" `Quick test_metrics_fct_buckets;
    Alcotest.test_case "metrics streaming default" `Quick
      test_metrics_streaming_default;
    Alcotest.test_case "driver incast sweep" `Slow test_driver_incast_sweep;
    Alcotest.test_case "driver all-to-all" `Slow test_driver_all_to_all;
    Alcotest.test_case "open loop domains invariance" `Slow
      test_open_loop_domains_identical;
    Alcotest.test_case "open loop flow cap" `Slow test_open_loop_max_flows;
    Alcotest.test_case "open loop ideal fct" `Quick test_open_loop_ideal_fct;
  ]
