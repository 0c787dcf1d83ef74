(** The set-up every workload run shares, {!Driver}'s and
    {!Open_loop}'s alike: the cluster and the fabric on it, the marking
    queues, the transport overrides and one launcher per scheme, the
    armed fault schedule, and the two ways a large flow's
    {!Metrics.flow_record} is filed (at completion, or swept up still
    running when the run ends). *)

type t = {
  cluster : Xmp_net.Shard.t;
  topo : Xmp_net.Topology.t;
  overrides : Scheme.transport_overrides;
  injectors : Xmp_faults.Injector.t array;  (** one per shard, in shard order *)
  schemes : (Scheme.t * Scheme.launcher) array;
}

val create :
  seed:int ->
  telemetry:Xmp_telemetry.Sink.t ->
  shards:int ->
  queue_pkts:int ->
  marking_threshold:int ->
  rto_min:Xmp_engine.Time.t ->
  beta:int ->
  sack:bool ->
  faults:Xmp_engine.Fault_spec.t ->
  schemes:Scheme.t array ->
  Xmp_net.Fabric.t ->
  t
(** Builds the fabric on a fresh cluster of [shards] shards (1, or
    {!Xmp_net.Fabric.shards}) whose simulators take [seed] and
    [telemetry]. Every fabric queue holds [queue_pkts] and marks at
    [marking_threshold], unless [schemes] is one scheme tuned for its
    own K ({!Scheme.marking_threshold}). [faults] is armed by
    {!Xmp_faults.Injector.install_cluster}: a named link or host on the
    shard that holds it, a tag or all-link target on every shard with
    such links. Source host
    [i] originates [schemes.(i mod n)]. *)

val close : t -> unit
(** Releases the finished run's engine ({!Xmp_net.Shard.close}) once its
    result is built: what it still held of the run is garbage at once
    instead of being promoted by the next minor collection. Read event
    counts first; they stay readable, but the cluster refuses to run or
    schedule again. Links and their counters stay readable, so a result
    may keep a network for its link statistics. *)

val scheme : t -> src:int -> Scheme.t * Scheme.launcher
(** The scheme host [src] originates, with its launcher. *)

val finish :
  t -> Metrics.t -> (int, Xmp_mptcp.Mptcp_flow.t) Hashtbl.t -> Xmp_mptcp.Mptcp_flow.t -> unit
(** A flow completed now, on its source's shard: drop it from the
    running table and file its record. *)

val sweep :
  t ->
  Metrics.t ->
  (int, Xmp_mptcp.Mptcp_flow.t) Hashtbl.t ->
  until:Xmp_engine.Time.t ->
  min_elapsed:Xmp_engine.Time.t ->
  unit
(** Files every flow still in the running table at [until] as truncated,
    in flow-id order, with its goodput over start → [until]; flows
    younger than [min_elapsed] carry no signal and are skipped. *)
