(** Open-loop workload runs on any {!Xmp_net.Fabric}, sharded one
    shard per pod or per DC, at paper scale.

    Arrivals are per-host Poisson processes ({!Arrivals}) whose rate
    offers a chosen fraction of the host line rate; flow sizes come from
    an empirical CDF ({!Flow_size}); destinations are uniform over the
    other hosts. Arrivals never wait for completions — the open-loop
    property that exposes a scheme's behaviour under sustained load.

    Flows are launched at the {!Xmp_net.Shard.run} epoch barrier (the
    [on_epoch] hook) and wait as a record until their start, when their
    subflows are built on the source shard. A split flow's receiver
    halves open on the destination shard at the first barrier after the
    start (the lookahead keeps its data from arriving sooner). Between
    barriers a shard keeps its running flows (one table entry each) and
    the receiver halves of the split flows that finished ({!Finished}):
    a completed flow is dropped at its completion, all but those halves,
    which answer late arrivals until the next barrier reaps them. So
    endpoint tables, and the heap, hold only running flows over millions
    of flows. All per-flow randomness
    comes from the source host's own stream, flow ids are assigned in
    the deterministic barrier order, and per-pod {!Metrics} collectors
    are merged in pod order — so results are byte-identical for any
    [domains] count. *)

type config = {
  fabric : Xmp_net.Fabric.t;
  seed : int;
  scheme : Scheme.t;
  sizes : Flow_size.t;
  load : float;  (** offered load as a fraction of host line rate *)
  horizon : Xmp_engine.Time.t;  (** arrivals stop here *)
  drain : Xmp_engine.Time.t;
      (** extra simulated time for in-flight flows to finish; flows still
          running at [horizon + drain] are recorded as truncated *)
  max_flows : int option;  (** arrivals also stop after this many launches *)
  queue_pkts : int;
  marking_threshold : int;
  beta : int;
  rto_min : Xmp_engine.Time.t;
  sack : bool;
  keep_flows : bool;
      (** retain per-flow records (see {!Metrics.create}); leave [false]
          for long runs *)
  cross_dc : float;
      (** fraction of arrivals aimed at the other data center, on a
          bridged fabric only; ignored (and the destination draw
          sequence unchanged) on a fat tree *)
  faults : Xmp_engine.Fault_spec.t;
      (** armed on the shards that hold each target (see
          {!Setup.create}), e.g. Gilbert–Elliott loss on the ["wan"]
          tag or a down on one named trunk direction *)
}

val default_config : config
(** A k = 8 fat tree, seed 1, XMP-2, web-search sizes, 40% load at 1 Gbps,
    100 ms horizon + 200 ms drain, no flow cap, 100-packet queues with
    marking threshold 10, β = 4, RTOmin 200 ms, SACK off, RTT
    subsampling 64, per-flow records not kept, [cross_dc] 0 (which,
    on a bridged fabric, draws destinations uniformly over every host;
    see {!run}), no faults. *)

type result = {
  metrics : Metrics.t;
      (** pod collectors merged in pod order; FCT slowdowns are in
          {!Metrics.fct_slowdowns} / {!Metrics.fct_summary_csv} /
          {!Metrics.fct_cdf_csv} *)
  launched : int;
  completed : int;
  truncated : int;  (** still running at [horizon + drain] *)
  events : int;
  mail : int;  (** cross-shard portal packets *)
  dead_lettered : int;
      (** packets that reached a host with no endpoint registered for
          them, over all shards: late arrivals after a teardown, and any
          that reach a receiver before it opens *)
  config : config;
}

(** What a shard keeps of the flows that finished since the last
    barrier: the receiver halves of split flows, and nothing of a flow
    whose receivers share its sender's network. Such a flow is garbage
    at its completion; a split flow's sender, controllers, coupling group
    and handle are too, while its receivers ({!Xmp_transport.Tcp.receiver},
    which lead back to none of them) stay registered and answer late
    arrivals until the next barrier reaps them. *)
module Finished : sig
  type t

  val create : unit -> t

  val add : t -> Xmp_mptcp.Mptcp_flow.t -> unit
  (** Files a completed flow's split receivers
      ({!Xmp_mptcp.Mptcp_flow.receivers}) and keeps nothing else of
      it. *)

  val reap : t -> unit
  (** Closes the filed receivers in completion order
      ({!Xmp_transport.Tcp.close_receiver}) and forgets them: call it
      where touching the destination shards is safe, at a barrier. *)
end

val arrival_rate : config -> float
(** The per-host arrival rate (flows/s) the config offers:
    [load · rate / (mean flow size in bits)], at a 1 Gbps host line
    rate. *)

val ideal_fct :
  Xmp_net.Topology.t ->
  src:int ->
  dst:int ->
  size_segments:int ->
  Xmp_engine.Time.t
(** The slowdown denominator every run records: line-rate transfer time
    plus the handle's zero-load RTT between [src] and [dst] (a flow that
    never queues or shares scores 1). *)

val run : ?config:config -> ?domains:int -> unit -> result
(** One shard per pod of a fat tree, or per DC of a bridge. On a bridge
    with a positive [config.cross_dc], that fraction of each host's
    arrivals target a uniform host in the other DC and the rest stay
    uniform within the source DC; at 0, destinations are uniform over
    every host, so about half cross the trunk (ROADMAP item 4 makes 0
    mean DC-local). Cross-DC ideals use the fastest trunk's zero-load
    RTT, so slowdown stays comparable across trunk configurations.
    Results are byte-identical for any [domains]. *)

val run_wan :
  ?config:config ->
  ?domains:int ->
  left:Xmp_net.Wan.dc_spec ->
  right:Xmp_net.Wan.dc_spec ->
  trunks:Xmp_net.Wan.trunk list ->
  unit ->
  result
(** {!run} on [Bridged { left; right; trunks }], whatever
    [config.fabric] says. *)
