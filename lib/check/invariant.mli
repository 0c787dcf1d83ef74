(** Runtime invariant checker.

    Engine, net and transport layers assert structural invariants through
    this module: event dispatch times are monotone, queue occupancy stays
    within bounds, ECN marks only happen above the marking threshold,
    congestion windows never drop below one segment, and per-subflow
    in-flight accounting stays conserved.

    Checks are globally toggled (cheap O(1) predicates; on by default and
    always on under the test suite) and written in the {!holds} form, so
    a passing check allocates nothing. A failing check raises {!Violation}
    in the default [Raise] mode, or logs to stderr in [Warn] mode for
    long production runs where a corrupted metric beats a crash. *)

exception Violation of string

type mode =
  | Raise  (** a violated invariant raises {!Violation} (default) *)
  | Warn  (** a violated invariant logs one line to stderr *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Global toggle. [Sim.create ?invariants] forwards to this, so a
    simulation opts in or out at construction time. *)

val set_mode : mode -> unit

val holds : bool -> bool
(** [holds cond] is the one check form:

    {[
      if not (Invariant.holds cond) then
        Invariant.fail ~name:"layer.what" (fun () -> detail)
    ]}

    When checking is enabled it counts one check and returns [cond];
    when disabled it returns [true] without counting. [cond] itself is
    evaluated by the caller either way, so a costly condition goes under
    an [if Invariant.enabled ()] guard. A check that passes costs the
    condition, one call and two atomic loads (plus a domain-local
    increment once {!reset_counters} has armed counting), and allocates
    nothing: the [detail] closure is only built on the failing branch. *)

val fail : name:string -> (unit -> string) -> unit
(** [fail ~name detail] reports a violated invariant: it counts the
    violation, then raises {!Violation} (mode [Raise]) or logs one line
    to stderr (mode [Warn]). The message is
    ["invariant <name> violated: <detail ()>"]. *)

val checks_run : unit -> int
(** Checks evaluated since the last {!reset_counters}. Counting is off
    until the first {!reset_counters} arms it — the tally costs a
    domain-local increment per check, which the simulation hot path
    only pays once a caller has shown interest. *)

val violations : unit -> int
(** Violations seen — only observable above zero in [Warn] mode, since
    [Raise] aborts the run. *)

val reset_counters : unit -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** [with_enabled b f] runs [f] with the toggle set to [b], restoring the
    previous state afterwards (exception-safe). *)
