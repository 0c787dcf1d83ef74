module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Units = Xmp_net.Units
module Topology = Xmp_net.Topology
module Shard = Xmp_net.Shard
module Mptcp_flow = Xmp_mptcp.Mptcp_flow
module Tcp = Xmp_transport.Tcp

(* Open-loop workload on a sharded fabric: Poisson arrivals per host
   (independent of flow completions — the open-loop property), flow
   sizes from an empirical CDF, uniform random destinations. Flows are
   launched at the epoch barrier via {!Shard.run}'s [on_epoch] hook,
   which runs on the orchestrating domain in a deterministic order, so
   the generated schedule is identical for any domain count. A launched
   flow waits as a handle and its start events; its subflows are built
   at the start on the source shard, and a split flow's receivers open
   at the next barrier, the only point where touching the destination
   shard is safe; when it completes, they are all that is kept of it,
   until the barrier after.

   The generator sees only the {!Topology} handle of the fabric
   {!Setup} builds, one shard per pod or per DC, so one path drives the
   pod-sharded fat tree and the two-DC WAN bridge alike; on a fat tree
   it performs exactly the RNG draws it always did, keeping its digests
   stable. *)

type config = {
  fabric : Xmp_net.Fabric.t;
  seed : int;
  scheme : Scheme.t;
  sizes : Flow_size.t;
  load : float;  (** offered load as a fraction of host line rate *)
  horizon : Time.t;  (** arrivals stop here *)
  drain : Time.t;  (** extra simulated time for in-flight flows to finish *)
  max_flows : int option;  (** arrivals also stop after this many launches *)
  queue_pkts : int;
  marking_threshold : int;
  beta : int;
  rto_min : Time.t;
  sack : bool;
  keep_flows : bool;
  cross_dc : float;
      (** fraction of flows aimed at the other DC (WAN fabrics only) *)
  faults : Xmp_engine.Fault_spec.t;
}

let default_config =
  {
    fabric = Xmp_net.Fabric.Fat_tree 8;
    seed = 1;
    scheme = Scheme.xmp 2;
    sizes = Flow_size.web_search;
    load = 0.4;
    horizon = Time.ms 100;
    drain = Time.ms 200;
    max_flows = None;
    queue_pkts = 100;
    marking_threshold = 10;
    beta = 4;
    rto_min = Time.ms 200;
    sack = false;
    keep_flows = false;
    cross_dc = 0.;
    faults = Xmp_engine.Fault_spec.empty;
  }

(* host line rate, and one RTT sample kept in 64 *)
let rate = Units.gbps 1.
let rtt_subsample = 64

type result = {
  metrics : Metrics.t;
  launched : int;
  completed : int;
  truncated : int;
  events : int;
  mail : int;
  dead_lettered : int;
  config : config;
}

(* Per-host arrival rate that offers [load] of the line rate:
   λ = load · C / E[S], with E[S] in bits. *)
let arrival_rate cfg =
  let mean_bits = Flow_size.mean_segments cfg.sizes *. 1460. *. 8. in
  cfg.load *. float_of_int rate /. mean_bits

(* Ideal FCT: line-rate transfer time plus the zero-load RTT — the
   standard slowdown denominator (a flow that never queues and never
   shares a link scores 1). *)
let transfer_time ~size_segments =
  Time.of_float_s
    (float_of_int size_segments *. 1460. *. 8. /. float_of_int rate)

let ideal_fct (fb : Topology.t) ~src ~dst ~size_segments =
  Time.add (transfer_time ~size_segments) (fb.zero_load_rtt ~src ~dst)

(* Destination choice. Single-DC fabrics take the one branch the
   original generator had — same draws, same digests. WAN fabrics spend
   one extra uniform draw deciding the side of the cut, then pick within
   the chosen DC. *)
let pick_dst (fb : Topology.t) ~cross_dc ~rng ~src =
  if Array.length fb.dc_ranges <= 1 || cross_dc <= 0. then begin
    (* uniform over the other n-1 hosts *)
    let d = Random.State.int rng (fb.n_hosts - 1) in
    if d >= src then d + 1 else d
  end
  else begin
    let dc = Topology.dc_of_host fb src in
    if Random.State.float rng 1.0 < cross_dc then begin
      let base, count = fb.dc_ranges.(1 - dc) in
      base + Random.State.int rng count
    end
    else begin
      let base, count = fb.dc_ranges.(dc) in
      let d = Random.State.int rng (count - 1) in
      let local = src - base in
      base + (if d >= local then d + 1 else d)
    end
  end

module Finished = struct
  (* receiver halves of split flows, newest first *)
  type t = { mutable receivers : Tcp.receiver list }

  let create () = { receivers = [] }

  let add t f =
    t.receivers <- List.rev_append (Mptcp_flow.receivers f) t.receivers

  let reap t =
    match t.receivers with
    | [] -> ()
    | rs ->
      t.receivers <- [];
      List.iter Tcp.close_receiver (List.rev rs)
end

(* Everything one shard's domain writes during an epoch; drained by the
   orchestrator at the barrier (the crew mutex publishes it). A flow's
   source, destination and size live in its handle, and everything else
   recorded about it (locality, ideal FCT) is a function of those, so a
   running flow costs one table entry. *)
type shard_state = {
  metrics : Metrics.t;
  running : (int, Mptcp_flow.t) Hashtbl.t;
  finished : Finished.t;  (* completed this epoch, reaped at the barrier *)
  mutable n_completed : int;
}

let run ?(config = default_config) ?(domains = 1) () =
  let cfg = config in
  let setup =
    Setup.create ~seed:cfg.seed ~telemetry:Xmp_telemetry.Sink.null
      ~shards:(Xmp_net.Fabric.shards cfg.fabric) ~queue_pkts:cfg.queue_pkts
      ~marking_threshold:cfg.marking_threshold ~rto_min:cfg.rto_min
      ~beta:cfg.beta ~sack:cfg.sack ~faults:cfg.faults ~schemes:[| cfg.scheme |]
      cfg.fabric
  in
  let fb = setup.topo in
  let _, launcher = Setup.scheme setup ~src:0 in
  let shards =
    Array.init (Shard.n_shards fb.cluster) (fun _ ->
        {
          metrics =
            Metrics.create ~keep_flows:cfg.keep_flows
              ~rtt_subsample ();
          running = Hashtbl.create 512;
          finished = Finished.create ();
          n_completed = 0;
        })
  in
  (* One observer per (source shard, locality), shared by all its flows:
     runs in the source shard's domain. *)
  let observer shard locality =
    let st = shards.(shard) in
    {
      Scheme.silent with
      on_rtt_sample = (fun rtt -> Metrics.record_rtt st.metrics ~locality rtt);
      on_complete =
        (fun f ->
          Setup.finish setup st.metrics st.running f;
          (* every flow Open_loop launches is sized *)
          let size_segments = Option.get (Mptcp_flow.size_segments f) in
          let src = Mptcp_flow.src f and dst = Mptcp_flow.dst f in
          let finished = Sim.now (Shard.sim fb.cluster shard) in
          Metrics.record_fct st.metrics ~size_segments
            ~fct:(Time.sub finished (Mptcp_flow.started_at f))
            ~ideal:(ideal_fct fb ~src ~dst ~size_segments);
          Finished.add st.finished f;
          st.n_completed <- st.n_completed + 1);
    }
  in
  let observers =
    Array.mapi
      (fun shard _ ->
        Array.map (observer shard)
          [| Topology.Inner_rack; Inter_rack; Inter_pod; Inter_dc |])
      shards
  in
  let arrivals =
    Arrivals.create ~seed:cfg.seed ~hosts:fb.n_hosts
      ~rate:(arrival_rate cfg)
  in
  let launched = ref 0 in
  (* split flows launched at this barrier: they start inside the coming
     epoch, and their receivers open at the next barrier, before any of
     their data can cross the lookahead *)
  let opening = ref [] in
  let launch ~host ~at ~rng =
    let src = host in
    let dst = pick_dst fb ~cross_dc:cfg.cross_dc ~rng ~src in
    let size_segments = Flow_size.sample cfg.sizes rng in
    let locality = fb.locality ~src ~dst in
    let paths =
      Scheme.pick_paths ~rng ~available:(fb.n_paths ~src ~dst)
        ~wanted:(Scheme.n_subflows cfg.scheme)
    in
    let flow = !launched in
    incr launched;
    let shard = fb.shard_of_host src in
    let handle =
      Scheme.launch
        ~net:(Topology.host_net fb src)
        ~rcv_net:(Topology.host_net fb dst)
        ~flow ~src ~dst ~paths ~size_segments ~start_at:at
        ~observer:observers.(shard).(Topology.locality_index locality)
        launcher
    in
    if not (Mptcp_flow.is_complete handle) then
      Hashtbl.replace shards.(shard).running flow handle;
    if fb.shard_of_host dst <> shard then opening := handle :: !opening
  in
  let at_max () =
    match cfg.max_flows with Some m -> !launched >= m | None -> false
  in
  let on_epoch ~target =
    (* first open the receivers of split flows that started in the last
       epoch and reap those of flows that completed in earlier epochs:
       both touch the destination shard, which is only safe here, with
       every worker parked *)
    List.iter Mptcp_flow.open_receivers (List.rev !opening);
    opening := [];
    Array.iter (fun st -> Finished.reap st.finished) shards;
    if at_max () then Arrivals.stop arrivals;
    let gen_target = Time.min target cfg.horizon in
    let next =
      Arrivals.until arrivals ~target:gen_target ~f:(fun ~host ~at ~rng ->
          if not (at_max ()) then launch ~host ~at ~rng)
    in
    if Time.compare next cfg.horizon > 0 then Time.infinity else next
  in
  let until = Time.add cfg.horizon cfg.drain in
  Shard.run ~domains ~until ~on_epoch setup.cluster;
  (* Flows still in flight at the end are recorded as truncated. Their
     FCT is undefined — only goodput and counts are filed. *)
  let total = Metrics.create ~keep_flows:cfg.keep_flows ~rtt_subsample () in
  Array.iter
    (fun st ->
      Setup.sweep setup st.metrics st.running ~until ~min_elapsed:Time.zero;
      Metrics.merge ~into:total st.metrics)
    shards;
  let completed =
    Array.fold_left (fun acc st -> acc + st.n_completed) 0 shards
  in
  {
    metrics = total;
    launched = !launched;
    completed;
    truncated = Metrics.n_truncated_flows total;
    events = Shard.events_executed setup.cluster;
    mail = Shard.mail_injected setup.cluster;
    dead_lettered =
      Array.fold_left ( + ) 0
        (Array.init (Shard.n_shards setup.cluster) (fun i ->
             Xmp_net.Network.packets_dead_lettered (Shard.net setup.cluster i)));
    config = cfg;
  }

let run_wan ?(config = default_config) ?domains ~left ~right ~trunks () =
  run ~config:{ config with fabric = Bridged { left; right; trunks } } ?domains ()
