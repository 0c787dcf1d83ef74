(** The telemetry sink a simulation owns.

    A sink bundles a metrics {!Registry} with a flight {!Recorder} behind
    an [enabled] flag. Instrumentation sites hold the sink (or a {!scope}
    of it) and test {!active} before doing any work, so with the {!null}
    sink — the default for [Xmp_engine.Sim.create] — every instrumented
    hot path costs a single load-and-branch and records nothing.

    Lifecycle: a sink is created before the simulation ([create]), handed
    to [Sim.create] via [Sim.config], shared by reference with every
    component built over that sim (queues, links, transports, flows), and
    read out after [Sim.run] via {!registry} / {!recorder} and the
    {!Export} functions. Sinks are passive: they never schedule simulator
    events, so enabling one cannot perturb a run's trajectory. *)

type t

val null : t
(** The shared disabled sink. Never emits and never accumulates; its
    registry and recorder stay empty. *)

val create : ?recorder_capacity:int -> unit -> t
(** An enabled sink with a fresh registry and a flight recorder of
    [recorder_capacity] entries (default 65536).
    @raise Invalid_argument if [recorder_capacity <= 0]. *)

val active : t -> bool
(** [false] exactly for disabled sinks; the guard instrumentation sites
    test before building events or resolving metric handles. *)

val registry : t -> Registry.t
val recorder : t -> Recorder.t

val event : t -> time_ns:int -> Event.t -> unit
(** Records into the flight recorder; no-op when the sink is disabled.
    Prefer guarding with {!active} when constructing the event itself
    costs an allocation. *)

(** A sink pre-bound to one subflow's identity, threaded to congestion
    controllers through [Cc.view] so BOS / TraSh can emit events tagged
    with the right [flow]/[subflow] without knowing about transport
    internals. *)
type scope = {
  sink : t;
  flow : int;
  subflow : int;
}

val unscoped : scope
(** {!null} with zeroed identity — the default for hand-built views in
    tests. *)

val scope : t -> flow:int -> subflow:int -> scope
(** A disabled sink yields the shared {!unscoped}, so a run without
    telemetry allocates no scope per subflow. *)
