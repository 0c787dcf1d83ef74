(** The runner of one testbed panel (Figures 1, 4, 6 and 7, the K and
    queue-occupancy ablations): a parallel-bottleneck
    {!Xmp_net.Testbed} on a one-shard cluster, the run's faults armed
    against it, a {!Probe}, and the figure's flow schedule run to the
    horizon. *)

type geometry = {
  hosts : int;  (** sender hosts, and as many receivers *)
  rates : Xmp_net.Units.rate list;  (** one bottleneck per rate *)
  delay : Xmp_engine.Time.t;  (** one-way, each bottleneck *)
  access_delay : Xmp_engine.Time.t;  (** one-way, each access link *)
}

val zero_load_rtt : geometry -> Xmp_engine.Time.t
(** [2 * (2 * access_delay + delay)]: host to host and back, queues
    empty. *)

val testbed :
  geometry ->
  net:Xmp_net.Network.t ->
  disc:(unit -> Xmp_net.Queue_disc.t) ->
  Xmp_net.Testbed.t
(** The geometry on [net], every bottleneck queue built by [disc]. *)

type env = {
  sim : Xmp_engine.Sim.t;
  net : Xmp_net.Network.t;
  testbed : Xmp_net.Testbed.t;
  probe : Probe.t;
}

val run :
  geometry ->
  seed:int ->
  telemetry:Xmp_telemetry.Sink.t ->
  faults:Xmp_engine.Fault_spec.t ->
  queue:Xmp_net.Queue_disc.policy ->
  capacity_pkts:int ->
  bucket_s:float ->
  horizon_s:float ->
  (env -> unit -> 'a) ->
  'a
(** [run geometry ... schedule]: bottleneck queues of [capacity_pkts]
    packets under [queue], probe buckets of [bucket_s]; [schedule]
    places the flows and returns the finisher that reads the result off
    the run. *)

val flow :
  env ->
  ?observer:Xmp_workload.Scheme.observer ->
  flow:int ->
  host:int ->
  paths:int list ->
  Xmp_workload.Scheme.launcher ->
  Xmp_mptcp.Mptcp_flow.t
(** A flow from sender [host] to receiver [host] over bottlenecks
    [paths]. *)

val series : env -> string list -> Xmp_workload.Scheme.observer
(** Records subflow [i]'s acked segments in the probe series named by
    the [i]-th name. *)
