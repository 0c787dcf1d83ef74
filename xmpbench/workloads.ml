(* The benchmark workloads. Each is one call into the public simulation
   API (Driver.run, Open_loop.run, Open_loop.run_wan) whose inputs are
   made from the benchmark seed alone. [scale] multiplies every simulated
   horizon: 1.0 is the measured size, a small value the smoke size, and
   0.0 runs only the set-up (fabric build, traffic set-up and result
   collection) with nothing simulated. *)

module Time = Xmp_engine.Time
module Sink = Xmp_telemetry.Sink
module Registry = Xmp_telemetry.Registry
module Counter = Xmp_telemetry.Metric.Counter
module Network = Xmp_net.Network
module Link = Xmp_net.Link
module Queue_disc = Xmp_net.Queue_disc
module Fat_tree = Xmp_net.Fat_tree
module Units = Xmp_net.Units
module Wan = Xmp_net.Wan
module Distribution = Xmp_stats.Distribution
module Driver = Xmp_workload.Driver
module Open_loop = Xmp_workload.Open_loop
module Metrics = Xmp_workload.Metrics
module Flow_size = Xmp_workload.Flow_size

type outcome = {
  digest : string;
      (** hash of the model outputs (flow counts, goodput, job times, FCT
          summaries); equal for any domain count and [keep_flows] *)
  events : int;
  seg_hops : float option;
      (** simulated work: data segments delivered, each counted once per
          link on its path; [None] when no flow records were kept *)
  counts : (string * float) list;  (** per-layer counts read after the call *)
}

type t = {
  name : string;
  sharded : bool;  (** runs on a shard cluster, so [domains] applies *)
  run :
    seed:int ->
    domains:int ->
    scale:float ->
    keep_flows:bool ->
    telemetry:Sink.t ->
    outcome;
      (** [telemetry] reaches the simulator on Driver workloads only;
          [keep_flows] on open-loop workloads only (the Driver always
          keeps flow records) *)
}

let scaled scale t = Time.of_float_s (Time.to_float_s t *. scale)

(* paper sizes x1/32, the repo-wide convention *)
let web_search = Flow_size.scaled Flow_size.web_search (1. /. 32.)

let segs_of_mb mb = int_of_float (Float.ceil (mb *. 1e6 /. 1460.))

(* Links on a host pair's path in a k-ary fat tree, and across the WAN
   bridge of two fat trees (up to the core, border, trunk, and down). *)
let hops = function
  | Fat_tree.Inner_rack -> 2.
  | Inter_rack -> 4.
  | Inter_pod -> 6.
  | Inter_dc -> 9.

let flow_seg_hops m =
  List.fold_left
    (fun acc (f : Metrics.flow_record) ->
      let secs = Time.to_float_s (Time.sub f.finished f.started) in
      let segments = Float.round (f.goodput_bps *. secs /. (1460. *. 8.)) in
      acc +. (hops f.locality *. segments))
    0. (Metrics.completed_flows m)

let summary d =
  if Distribution.is_empty d then "-"
  else
    let lo, p10, p50, p90, hi = Distribution.five_number d in
    Printf.sprintf "%d:%.12g:%.12g:%.12g:%.12g:%.12g:%.12g"
      (Distribution.count d) (Distribution.mean d) lo p10 p50 p90 hi

let digest fields = Digest.to_hex (Digest.string (String.concat "|" fields))

(* a transport counter of the run's telemetry sink; 0 without one *)
let counter sink name =
  match
    List.assoc_opt ("transport/" ^ name)
      (Registry.to_alist (Sink.registry sink))
  with
  | Some (Registry.Counter c) -> Counter.value c
  | Some _ | None -> 0

(* ---- closed loop: Driver on a k=4 fat tree ---- *)

(* Job traffic is not recorded per flow, so each completed job counts its
   [job_segments] at the mean path length between two distinct hosts of
   a k=4 fat tree: (1 x 2 + 2 x 4 + 12 x 6) / 15 links. *)
let mean_hops_k4 = 82. /. 15.

let driver ~name ~pattern ?(job_segments = 0) ~horizon () =
  let run ~seed ~domains:_ ~scale ~keep_flows:_ ~telemetry =
    let horizon = scaled scale horizon in
    let r =
      Driver.run
        { Driver.default_config with seed; horizon; pattern; telemetry }
    in
    let m = r.Driver.metrics in
    let links = Network.links r.Driver.net in
    let sum f = List.fold_left (fun acc l -> acc + f l) 0 links in
    let disc f l = f (Link.disc l) in
    let truncated = Metrics.n_truncated_flows m in
    let completed = Metrics.n_completed_flows m - truncated in
    let jobs = Distribution.count (Metrics.job_times_ms m) in
    let seg_hops =
      flow_seg_hops m +. (float_of_int (jobs * job_segments) *. mean_hops_k4)
    in
    {
      digest =
        digest
          [
            Printf.sprintf "%d/%d" completed truncated;
            Printf.sprintf "%.12g" (Metrics.mean_goodput_bps m);
            summary (Metrics.goodputs m);
            summary (Metrics.job_times_ms m);
          ];
      events = r.Driver.events;
      seg_hops = Some seg_hops;
      counts =
        List.map
          (fun (k, v) -> (k, float_of_int v))
          [
            ("net.link.tx_packets", sum Link.packets_sent);
            ("net.queue.enqueued", sum (disc Queue_disc.enqueued));
            ("net.queue.dropped", sum (disc Queue_disc.dropped));
            ("net.queue.marked", sum (disc Queue_disc.marked));
            ( "net.queue.max_depth",
              List.fold_left
                (fun acc l -> Int.max acc (disc Queue_disc.max_length_seen l))
                0 links );
            ("workload.flows_launched", completed + truncated);
            ("workload.flows_completed", completed);
            ("workload.flows_truncated", truncated);
            ("workload.jobs_completed", jobs);
            ("transport.retransmits", counter telemetry "retransmits");
            ("transport.timeouts", counter telemetry "timeouts");
          ];
    }
  in
  { name; sharded = false; run }

(* Long coupled XMP-2 flows: a permutation of 8-64 MB flows (the
   Fatree_eval default base), none of which finishes in the horizon. *)
let bulk =
  driver ~name:"bulk.k4"
    ~pattern:
      (Driver.Permutation
         {
           min_segments = 4 * segs_of_mb 2.;
           max_segments = 4 * segs_of_mb 16.;
         })
    ~horizon:(Time.ms 300) ()

(* 48 concurrent plain-TCP request/response chains of fanout 8 on 16
   hosts, no background flows, RTOmin 200 ms: tail drops and timeouts. *)
let incast =
  driver ~name:"incast.k4"
    ~pattern:
      (Driver.Incast
         {
           jobs = 48;
           fanout = 8;
           request_segments = 2;
           response_segments = 45;
           bg_mean_segments = 0.;
           bg_cap_segments = 0.;
           bg_shape = 1.5;
         })
    ~job_segments:(8 * (2 + 45)) ~horizon:(Time.ms 1200) ()

(* ---- open loop: Poisson arrivals of web-search flows ---- *)

let open_loop ~name ~config ~call =
  let run ~seed ~domains ~scale ~keep_flows ~telemetry:_ =
    let config =
      {
        config with
        Open_loop.seed;
        horizon = scaled scale config.Open_loop.horizon;
        drain = scaled scale config.Open_loop.drain;
        keep_flows;
      }
    in
    let r : Open_loop.result = call ~config ~domains in
    {
      digest =
        digest
          [
            Printf.sprintf "%d/%d/%d" r.launched r.completed r.truncated;
            Metrics.fct_summary_csv r.metrics;
          ];
      events = r.events;
      seg_hops = (if keep_flows then Some (flow_seg_hops r.metrics) else None);
      counts =
        List.map
          (fun (k, v) -> (k, float_of_int v))
          [
            ("net.shard.mail", r.mail);
            ("workload.flows_launched", r.launched);
            ("workload.flows_completed", r.completed);
            ("workload.flows_truncated", r.truncated);
            ("workload.jobs_completed", 0);
          ];
    }
  in
  { name; sharded = true; run }

(* XMP-2 at 40% load on the pod-sharded k=8 fat tree (8 shards, 40 us
   epochs): flow churn, endpoint registration and reaping, FCT metrics
   and portal mail. *)
let websearch =
  open_loop ~name:"websearch.k8"
    ~config:
      {
        Open_loop.default_config with
        sizes = web_search;
        horizon = Time.ms 40;
        drain = Time.ms 80;
      }
    ~call:(fun ~config ~domains -> Open_loop.run ~config ~domains ())

(* Two k=4 trees over one 1 Gbps / 40 ms trunk that marks at Eq. 1's
   K = BDP/(beta-1) = 2223 packets over BDP + 2K + 64 packets of buffer,
   30% of flows cross it: 2 shards, 40 ms epochs, large mail batches, a
   deep trunk queue and a large event heap. RTOmin is the WAN floor,
   half the slowest zero-load cross-DC RTT. *)
let dc = Wan.Fat_tree_dc { k = 4 }

let trunks =
  [
    Wan.trunk ~rate:(Units.gbps 1.) ~delay:(Time.ms 40) ~queue_pkts:11177
      ~marking_threshold:2223 ();
  ]

let wan =
  let rto_min = Wan.max_rtt_no_queue_of ~left:dc ~right:dc ~trunks / 2 in
  open_loop ~name:"wan.2dc"
    ~config:
      {
        Open_loop.default_config with
        sizes = web_search;
        load = 0.25;
        horizon = Time.ms 250;
        drain = Time.ms 250;
        rto_min;
        sack = true;
        cross_dc = 0.3;
      }
    ~call:(fun ~config ~domains ->
      Open_loop.run_wan ~config ~domains ~left:dc ~right:dc ~trunks ())

let all = [ bulk; incast; websearch; wan ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
