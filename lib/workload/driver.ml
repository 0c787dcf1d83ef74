module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Network = Xmp_net.Network
module Shard = Xmp_net.Shard
module Topology = Xmp_net.Topology
module Mptcp_flow = Xmp_mptcp.Mptcp_flow

type assignment = Uniform of Scheme.t | Split of Scheme.t * Scheme.t

type pattern =
  | Permutation of { min_segments : int; max_segments : int }
  | Random_pattern of {
      mean_segments : float;
      cap_segments : float;
      shape : float;
      max_inbound : int;
    }
  | Incast of {
      jobs : int;
      fanout : int;
      request_segments : int;
      response_segments : int;
      bg_mean_segments : float;
      bg_cap_segments : float;
      bg_shape : float;
    }
  | Incast_sweep of {
      jobs : int;
      fanouts : int list;
      request_segments : int;
      response_segments : int;
    }
  | All_to_all of { segments : int }

type config = {
  fabric : Xmp_net.Fabric.t;
  seed : int;
  cross_dc : float;
  horizon : Time.t;
  queue_pkts : int;
  marking_threshold : int;
  beta : int;
  rto_min : Time.t;
  sack : bool;
  assignment : assignment;
  pattern : pattern;
  faults : Xmp_engine.Fault_spec.t;
  telemetry : Xmp_telemetry.Sink.t;
}

(* Paper sizes scaled by 1/32 and converted to 1460-byte segments. *)
let segs_of_mb mb = int_of_float (Float.ceil (mb *. 1e6 /. 1460.))

let permutation_scaled =
  Permutation
    { min_segments = segs_of_mb 2.; max_segments = segs_of_mb 16. }

let incast_scaled =
  Incast
    {
      jobs = 3;
      fanout = 8;
      request_segments = 2;  (* 2 KB *)
      response_segments = 45;  (* 64 KB *)
      bg_mean_segments = float_of_int (segs_of_mb 6.);
      bg_cap_segments = float_of_int (segs_of_mb 24.);
      bg_shape = 1.5;
    }

let default_config =
  {
    fabric = Xmp_net.Fabric.Fat_tree 4;
    seed = 1;
    cross_dc = 0.;
    horizon = Time.sec 2.;
    queue_pkts = 100;
    marking_threshold = 10;
    beta = 4;
    rto_min = Time.ms 200;
    sack = false;
    assignment = Uniform (Scheme.xmp 2);
    pattern = permutation_scaled;
    faults = Xmp_engine.Fault_spec.empty;
    telemetry = Xmp_telemetry.Sink.null;
  }

type result = {
  metrics : Metrics.t;
  net : Network.t;
  config : config;
  events : int;
  injector : Xmp_faults.Injector.t;
}

type ctx = {
  cfg : config;
  setup : Setup.t;
  sim : Sim.t;
  net : Network.t;
  rng : Random.State.t;
  metrics : Metrics.t;
  reno : Scheme.launcher;  (* every small flow's *)
  mutable next_flow : int;
  inbound : int array;  (* per-host inbound large-flow count *)
  running : (int, Mptcp_flow.t) Hashtbl.t;  (* large flows still in flight *)
}

let fresh_flow ctx =
  let id = ctx.next_flow in
  ctx.next_flow <- id + 1;
  id

(* Launch one large flow between host indices and record it on
   completion. *)
let launch_large ctx ~src ~dst ~size_segments ~on_complete =
  let scheme, launcher = Setup.scheme ctx.setup ~src in
  let locality = ctx.setup.topo.locality ~src ~dst in
  let available = ctx.setup.topo.n_paths ~src ~dst in
  let paths =
    Scheme.pick_paths ~rng:ctx.rng ~available
      ~wanted:(Scheme.n_subflows scheme)
  in
  let flow = fresh_flow ctx in
  let handle =
    Scheme.launch ~net:ctx.net ~flow ~src ~dst ~paths ~size_segments
      ~observer:
        {
          Scheme.silent with
          on_rtt_sample =
            (fun rtt -> Metrics.record_rtt ctx.metrics ~locality rtt);
          on_complete =
            (fun f ->
              Setup.finish ctx.setup ctx.metrics ctx.running f;
              on_complete ());
        }
      launcher
  in
  if not (Mptcp_flow.is_complete handle) then
    Hashtbl.replace ctx.running flow handle

(* Launch a small (plain-TCP, single-path) flow; not recorded in large-flow
   metrics. *)
let launch_small ctx ~src ~dst ~size_segments ~on_complete =
  let available = ctx.setup.topo.n_paths ~src ~dst in
  let paths = Scheme.pick_paths ~rng:ctx.rng ~available ~wanted:1 in
  let flow = fresh_flow ctx in
  ignore
    (Scheme.launch ~net:ctx.net ~flow ~src ~dst ~paths ~size_segments
       ~observer:{ Scheme.silent with on_complete = (fun _ -> on_complete ()) }
       ctx.reno)

let uniform_size ctx ~min_segments ~max_segments =
  min_segments + Random.State.int ctx.rng (max_segments - min_segments + 1)

(* destination ≠ src, optionally in another rack, respecting the inbound
   cap; falls back to ignoring the cap if sampling keeps failing. *)
let pick_dst ctx ~src ~max_inbound ~other_rack =
  let topo = ctx.setup.topo in
  let n = topo.n_hosts in
  let ok ~use_cap d =
    d <> src
    && ((not use_cap) || ctx.inbound.(d) < max_inbound)
    && ((not other_rack)
       || topo.locality ~src ~dst:d <> Topology.Inner_rack)
  in
  (* single-DC candidates are uniform over all hosts, exactly as before;
     with a bridged topology and a positive [cross_dc], that fraction of
     candidates is drawn from the other DC and the rest from the
     source's own DC *)
  let candidate () =
    if Array.length topo.dc_ranges <= 1 || ctx.cfg.cross_dc <= 0. then
      Random.State.int ctx.rng n
    else begin
      let dc = Topology.dc_of_host topo src in
      let pick =
        if Random.State.float ctx.rng 1.0 < ctx.cfg.cross_dc then 1 - dc
        else dc
      in
      let base, count = topo.dc_ranges.(pick) in
      base + Random.State.int ctx.rng count
    end
  in
  let rec try_pick use_cap attempts =
    if attempts = 0 then
      if use_cap then try_pick false 64
      else (src + 1 + Random.State.int ctx.rng (n - 1)) mod n
    else begin
      let d = candidate () in
      if ok ~use_cap d then d else try_pick use_cap (attempts - 1)
    end
  in
  try_pick true 64

(* ----- Permutation pattern ----- *)

let random_derangement ctx n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int ctx.rng (i + 1) in
    let tmp = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- tmp
  done;
  (* repair fixed points by rotating them with their successor *)
  for i = 0 to n - 1 do
    if p.(i) = i then begin
      let j = (i + 1) mod n in
      let tmp = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- tmp
    end
  done;
  p

let run_permutation ctx ~min_segments ~max_segments =
  let n = ctx.setup.topo.n_hosts in
  let rec start_wave () =
    let perm = random_derangement ctx n in
    let remaining = ref n in
    for src = 0 to n - 1 do
      let size_segments = uniform_size ctx ~min_segments ~max_segments in
      launch_large ctx ~src ~dst:perm.(src) ~size_segments
        ~on_complete:(fun () ->
          decr remaining;
          if !remaining = 0 then start_wave ())
    done
  in
  start_wave ()

(* ----- Random pattern ----- *)

let start_random_source ctx ~pareto ~max_inbound ~other_rack ~src =
  let rec next () =
    let dst = pick_dst ctx ~src ~max_inbound ~other_rack in
    ctx.inbound.(dst) <- ctx.inbound.(dst) + 1;
    let size_segments = Pareto.sample_int pareto ctx.rng in
    launch_large ctx ~src ~dst ~size_segments ~on_complete:(fun () ->
        ctx.inbound.(dst) <- ctx.inbound.(dst) - 1;
        next ())
  in
  next ()

let run_random ctx ~mean_segments ~cap_segments ~shape ~max_inbound
    ~other_rack =
  let pareto =
    Pareto.create ~shape ~mean:mean_segments ~cap:cap_segments
  in
  for src = 0 to ctx.setup.topo.n_hosts - 1 do
    start_random_source ctx ~pareto ~max_inbound ~other_rack ~src
  done

(* ----- Incast pattern ----- *)

let pick_distinct ctx ~n ~from =
  let arr = Array.init from (fun i -> i) in
  for i = 0 to n - 1 do
    let j = i + Random.State.int ctx.rng (from - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.sub arr 0 n

(* [jobs] concurrent request/response chains. Chain [j] starts at
   offset [j] into [fanouts] and cycles through it, so concurrent chains
   cover different fanouts from the first wave on; every job is filed
   under its fanout. *)
let run_jobs ctx ~jobs ~fanouts ~request_segments ~response_segments =
  let fan_arr = Array.of_list fanouts in
  let n = ctx.setup.topo.n_hosts in
  let rec start_job idx =
    let fanout = fan_arr.(idx mod Array.length fan_arr) in
    let hosts = pick_distinct ctx ~n:(fanout + 1) ~from:n in
    let client = hosts.(0) in
    let t0 = Sim.now ctx.sim in
    let responses = ref 0 in
    for s = 1 to fanout do
      let server = hosts.(s) in
      launch_small ctx ~src:client ~dst:server
        ~size_segments:request_segments ~on_complete:(fun () ->
          launch_small ctx ~src:server ~dst:client
            ~size_segments:response_segments ~on_complete:(fun () ->
              incr responses;
              if !responses = fanout then begin
                Metrics.record_job ctx.metrics ~fanout
                  (Time.sub (Sim.now ctx.sim) t0);
                start_job (idx + 1)
              end))
    done
  in
  for j = 0 to jobs - 1 do
    start_job j
  done

(* All-to-all shuffle: every host sends one flow to every other host; the
   next wave starts when the whole shuffle completes (a map-reduce style
   barrier). *)
let run_all_to_all ctx ~segments =
  let n = ctx.setup.topo.n_hosts in
  let rec start_wave () =
    let remaining = ref (n * (n - 1)) in
    for src = 0 to n - 1 do
      for d = 1 to n - 1 do
        (* visit destinations in src-relative order so no host's flow
           set is built before its own outgoing flows exist *)
        let dst = (src + d) mod n in
        launch_large ctx ~src ~dst ~size_segments:segments
          ~on_complete:(fun () ->
            decr remaining;
            if !remaining = 0 then start_wave ())
      done
    done
  in
  start_wave ()

let run cfg =
  let setup =
    Setup.create ~seed:cfg.seed ~telemetry:cfg.telemetry ~shards:1
      ~queue_pkts:cfg.queue_pkts ~marking_threshold:cfg.marking_threshold
      ~rto_min:cfg.rto_min ~beta:cfg.beta ~sack:cfg.sack ~faults:cfg.faults
      ~schemes:
        (match cfg.assignment with Uniform s -> [| s |] | Split (a, b) -> [| a; b |])
      cfg.fabric
  in
  let sim = Shard.sim setup.cluster 0 and net = Shard.net setup.cluster 0 in
  let ctx =
    {
      cfg;
      setup;
      sim;
      net;
      rng = Sim.rng sim;
      metrics = Metrics.create ~keep_flows:true ~rtt_subsample:16 ();
      reno = Scheme.launcher Scheme.reno setup.overrides;
      next_flow = 0;
      inbound = Array.make setup.topo.n_hosts 0;
      running = Hashtbl.create 256;
    }
  in
  (match cfg.pattern with
  | Permutation { min_segments; max_segments } ->
    run_permutation ctx ~min_segments ~max_segments
  | Random_pattern { mean_segments; cap_segments; shape; max_inbound } ->
    run_random ctx ~mean_segments ~cap_segments ~shape ~max_inbound
      ~other_rack:false
  | Incast
      { jobs; fanout; request_segments; response_segments; bg_mean_segments;
        bg_cap_segments; bg_shape } ->
    if setup.topo.n_hosts < fanout + 1 then
      invalid_arg "Driver: incast fanout exceeds hosts";
    run_jobs ctx ~jobs ~fanouts:[ fanout ] ~request_segments
      ~response_segments;
    (* background large flows, endpoints never in the same rack; a
       non-positive mean disables the background entirely (pure
       incast) *)
    if bg_mean_segments > 0. then
      run_random ctx ~mean_segments:bg_mean_segments
        ~cap_segments:bg_cap_segments ~shape:bg_shape ~max_inbound:4
        ~other_rack:true
  | Incast_sweep { jobs; fanouts; request_segments; response_segments } ->
    if fanouts = [] then
      invalid_arg "Driver: incast sweep needs at least one fanout";
    if List.exists (fun f -> f < 1 || setup.topo.n_hosts < f + 1) fanouts then
      invalid_arg "Driver: incast sweep fanout exceeds hosts";
    run_jobs ctx ~jobs ~fanouts ~request_segments ~response_segments
  | All_to_all { segments } -> run_all_to_all ctx ~segments);
  Shard.run ~until:cfg.horizon setup.cluster;
  (* Flows still running at the horizon are measured over their partial
     lifetime (start → horizon), so slow schemes do not escape the average
     by never finishing. Very young flows carry no signal and are
     skipped. *)
  Setup.sweep setup ctx.metrics ctx.running ~until:cfg.horizon
    ~min_elapsed:(Time.div cfg.horizon 10);
  {
    metrics = ctx.metrics;
    net;
    config = cfg;
    events = Shard.events_executed setup.cluster;
    injector = setup.injectors.(0);
  }

let utilization_by_layer (r : result) =
  Metrics.utilization_by_layer ~net:r.net ~duration:r.config.horizon
