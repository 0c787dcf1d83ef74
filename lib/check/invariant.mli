(** Runtime invariant checker.

    Engine, net and transport layers assert structural invariants through
    this module: event dispatch times are monotone, queue occupancy stays
    within bounds, ECN marks only happen above the marking threshold,
    congestion windows never drop below one segment, and per-subflow
    in-flight accounting stays conserved.

    Checks are always on (cheap O(1) predicates) and written in the
    {!holds} form, so a passing check allocates nothing. A failing check
    raises {!Violation}. *)

exception Violation of string

val holds : bool -> bool
(** [holds cond] is the one check form:

    {[
      if not (Invariant.holds cond) then
        Invariant.fail ~name:"layer.what" (fun () -> detail)
    ]}

    It counts one check once {!reset_counters} has armed counting and
    returns [cond]. A check that passes costs the condition, one call
    and one atomic load (plus a domain-local increment when armed), and
    allocates nothing: the [detail] closure is only built on the failing
    branch. *)

val fail : name:string -> (unit -> string) -> unit
(** [fail ~name detail] raises {!Violation} with the message
    ["invariant <name> violated: <detail ()>"]. *)

val checks_run : unit -> int
(** Checks evaluated since the last {!reset_counters}. Counting is off
    until the first {!reset_counters} arms it — the tally costs a
    domain-local increment per check, which the simulation hot path
    only pays once a caller has shown interest. *)

val reset_counters : unit -> unit
