(** Discrete-event simulator.

    A simulator owns a clock, an event heap, a deterministic random state
    and a telemetry sink. Events are thunks fired in strict timestamp order
    (ties resolved by scheduling order). Scheduling in the past is a
    programming error and raises [Invalid_argument].

    Cancelled timers are deleted lazily: {!cancel} is O(1) and the heap
    compacts itself once dead entries outnumber half the live ones, so
    pending-event count stays O(live timers) under per-ACK timer churn
    (see {!stats}). Compaction is invisible to dispatch order.

    {2 FIFO lanes}

    Per-packet events go on lanes instead of the heap. A lane is a FIFO
    ring of ints whose keys increase in push order: [(time, seq,
    handler)] triples on a shared lane, [(time, seq)] pairs on a private
    one. Only its head sits in the event heap, as an int-coded entry
    with no event record. When the head fires, the heap root is
    re-keyed to the lane's next entry with one sift-down instead of a
    pop and a push. Every lane push draws its [seq] exactly where {!at}
    would, so events fire in the same [(time, seq)] order as if each had
    been scheduled with {!at}.

    A shared lane ({!lane}) holds the events scheduled a fixed delay
    after [now]. It stays FIFO because [now] never decreases and [seq]
    always increases, so any number of producers may share it: a sim
    has one per distinct delay. A private lane ({!private_lane}) takes
    explicit times and fires one handler, fixed when it is made, so its
    entries hold no handler; a push earlier than the lane's previous one
    raises [Invalid_argument]. Handlers are closures registered once
    with {!handler}; a shared lane's entry stores only the handler's
    number. Lane events cannot be cancelled.

    {2 Tables and the minor heap}

    [Array.make n fill] with [n] over 256 and a [fill] still in the
    minor heap forces a minor collection, so no table of a sim grows
    that way ({!Tables}). Vacated event-heap slots and free-list cells
    hold {!no_timer}, made at start-up; the heap's payload table and the
    lane table double through {!Tables.grow}. At most 256 fired event
    records wait on the free list for reuse. {!close} releases a
    finished run's events. *)

type t

type timer
(** Handle to a cancellable scheduled event. *)

type config = {
  seed : int;  (** random-state seed; runs with equal seeds are identical *)
  telemetry : Xmp_telemetry.Sink.t;
      (** sink shared with every component built over this simulator;
          {!Xmp_telemetry.Sink.null} disables instrumentation *)
}

type stats = {
  executed : int;  (** live events dispatched *)
  cancelled_skipped : int;
      (** cancelled entries popped and skipped without dispatch *)
  heap_peak : int;
      (** largest event-heap length ever reached: closure events, timers
          (cancelled ones not yet reaped included) and one head per
          non-empty lane. Entries queued behind a lane's head are not
          in the heap and do not count; {!pending} does count them. *)
  rebuilds : int;  (** lazy-deletion compactions of the event heap *)
}

val default_config : config
(** [{ seed = 42; telemetry = Sink.null }] —
    override fields with record update syntax: [Sim.create ~config:{ Sim.default_config with seed = 7 } ()]. *)

val create : ?config:config -> unit -> t
(** A fresh simulator at time 0 (default {!default_config}). *)

val now : t -> Time.t

val clock : t -> unit -> Time.t
(** [clock sim] reads {!now}. The closure is allocated once per sim, so
    holders of a clock (every connection's congestion-control view) share
    it instead of each allocating their own. *)

val rng : t -> Random.State.t

val telemetry : t -> Xmp_telemetry.Sink.t
(** The sink this simulator was created with. *)

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
(** Number of events still queued: every heap entry (cancelled timers
    not yet reaped included — bounded at 1.5× the live count by
    lazy-deletion compaction) plus every lane entry behind its lane's
    head. *)

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
    pop, and drops its closure at once. Cancelling an already-fired or
    already-cancelled timer is a no-op. *)

val no_timer : timer
(** A timer that is never active: the value of a timer field with
    nothing armed. Cancelling it is a no-op. *)

val timer_active : timer -> bool
(** True if the timer is scheduled and neither fired nor cancelled. *)

type handler
(** A closure registered with one sim, named by an int. *)

val handler : t -> (unit -> unit) -> handler
(** [handler sim f] registers [f] for lane events of [sim]. Register
    once, at set-up: the table only grows. *)

val no_handler : handler
(** A placeholder for a handler field filled in after construction.
    Firing it raises [Failure]. *)

type lane

val lane : t -> Time.t -> lane
(** [lane sim d] is [sim]'s shared lane for events [d] after [now],
    created on first request. Raises [Invalid_argument] if [d] is
    negative. *)

val private_lane : t -> handler -> lane
(** [private_lane sim h] is a fresh lane for {!lane_at} at explicit
    times, used by one producer whose times never decrease (a shard
    portal's arrivals). Each of its events fires [h], which must be
    registered with [sim]: an entry holds two ints, its time and seq. *)

val lane_after : lane -> handler -> unit
(** [lane_after ln h] schedules [h] at [now + d] on the shared lane [ln]
    of delay [d]. Raises [Invalid_argument] on a private lane. *)

val lane_at : lane -> Time.t -> unit
(** [lane_at ln time] schedules [ln]'s handler at absolute [time] on the
    private lane [ln]. Raises [Invalid_argument] on a shared lane, or if
    [time] is before [now] or before the time of the lane's previous
    push. *)

val close : t -> unit
(** Releases the sim's events: every pending event is dropped unrun (a
    pending timer reads inactive), the event heap's payload slots,
    free-list cells and handler table are overwritten in place with
    static placeholders, and every lane's ring is dropped. A table in
    the major heap that was written with young values stays remembered
    until the next minor collection; overwritten, it keeps nothing of
    the finished run alive through it. {!pending} is then 0, the
    counters ({!stats}, {!events_executed}) stay readable, and {!run},
    {!handler} and every way of scheduling raise [Invalid_argument].
    Closing twice is a no-op. *)

val run : ?until:Time.t -> t -> unit
(** Runs events until the heap is empty, or until the clock would pass
    [until]. The clock is left at the last executed event's time (or at
    [until] if a cutoff was hit). Events scheduled exactly at [until] do
    run. Raises [Invalid_argument] if [until] is before [now]: the clock
    never goes back, or if the sim is closed. *)
