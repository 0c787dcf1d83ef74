(** Discrete-event simulator.

    A simulator owns a clock, an event heap, a deterministic random state
    and a telemetry sink. Events are thunks fired in strict timestamp order
    (ties resolved by scheduling order). Scheduling in the past is a
    programming error and raises [Invalid_argument].

    Cancelled timers are deleted lazily: {!cancel} is O(1) and the heap
    compacts itself once dead entries outnumber half the live ones, so
    pending-event count stays O(live timers) under per-ACK timer churn
    (see {!stats}). Compaction is invisible to dispatch order. *)

type t

type timer
(** Handle to a cancellable scheduled event. *)

type config = {
  seed : int;  (** random-state seed; runs with equal seeds are identical *)
  invariants : bool option;
      (** when [Some b], invariant checking is [b] for events this sim
          dispatches (snapshotted per-sim, so two sims in one process do
          not reconfigure each other); [None] snapshots the ambient
          global {!Xmp_check.Invariant} toggle at creation time (checks
          default to on) *)
  telemetry : Xmp_telemetry.Sink.t;
      (** sink shared with every component built over this simulator;
          {!Xmp_telemetry.Sink.null} disables instrumentation *)
  faults : Fault_spec.t;
      (** declarative fault schedule carried for the benefit of
          [Xmp_faults.Injector.install], which arms it against a concrete
          network; {!Fault_spec.empty} (the default) injects nothing *)
}

type stats = {
  executed : int;  (** live events dispatched *)
  cancelled_skipped : int;
      (** cancelled entries popped and skipped without dispatch *)
  heap_peak : int;  (** largest pending-event count ever reached *)
  rebuilds : int;  (** lazy-deletion compactions of the event heap *)
}

val default_config : config
(** [{ seed = 42; invariants = None; telemetry = Sink.null;
    faults = Fault_spec.empty }] — override fields with record update
    syntax: [Sim.create ~config:{ Sim.default_config with seed = 7 } ()]. *)

val create : ?config:config -> unit -> t
(** A fresh simulator at time 0 (default {!default_config}). *)

val now : t -> Time.t

val rng : t -> Random.State.t

val telemetry : t -> Xmp_telemetry.Sink.t
(** The sink this simulator was created with. *)

val faults : t -> Fault_spec.t
(** The fault schedule this simulator was created with (inert until an
    injector is installed over it). *)

val events_executed : t -> int
(** Number of events fired so far (a cheap progress/work metric). *)

val total_events_executed : unit -> int
(** Process-wide event tally across every simulator instance, for harnesses
    (e.g. the scenario runner's workers) that report work done per task as
    a delta of this counter. *)

val global_heap_peak : unit -> int
(** Process-wide event-heap high-water mark across every simulator
    instance since the last {!reset_global_heap_peak} — for harnesses
    (the perf bench) measuring scenarios that construct sims
    internally. *)

val reset_global_heap_peak : unit -> unit

val pending : t -> int
(** Number of events still queued (cancelled timers not yet reaped
    included — bounded at 1.5× the live count by lazy-deletion
    compaction). *)

val next_event_time : t -> Time.t
(** Timestamp of the earliest queued event (cancelled entries included),
    or [Time.infinity] if none — what an epoch orchestrator uses to
    fast-forward over idle windows. *)

val stats : t -> stats
(** Dispatch-loop and heap-hygiene counters for this simulator. *)

val at : t -> Time.t -> (unit -> unit) -> unit
(** [at sim time f] schedules [f] to run at absolute [time]. *)

val after : t -> Time.t -> (unit -> unit) -> unit
(** [after sim d f] schedules [f] to run [d] from now. *)

val timer_at : t -> Time.t -> (unit -> unit) -> timer
(** Like {!at} but returns a cancellable handle. *)

val timer_after : t -> Time.t -> (unit -> unit) -> timer

val cancel : timer -> unit
(** O(1); the heap entry is reaped by a later compaction or skipped at
    pop. Cancelling an already-fired or already-cancelled timer is a
    no-op. *)

val timer_active : timer -> bool
(** True if the timer is scheduled and neither fired nor cancelled. *)

val run : ?until:Time.t -> t -> unit
(** Runs events until the heap is empty, or until the clock would pass
    [until]. The clock is left at the last executed event's time (or at
    [until] if a cutoff was hit). Events scheduled exactly at [until] do
    run. *)

val step : t -> bool
(** Executes the single earliest event. Returns [false] if none is queued. *)
