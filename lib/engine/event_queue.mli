(** Growable binary min-heap of timestamped events, with lazy deletion.

    Events are ordered by [(time, seq)] where [seq] is a monotonically
    increasing insertion counter supplied by the caller: two events scheduled
    for the same instant fire in insertion order, which makes simulations
    deterministic.

    Cancellation support is cooperative: the payload owner flips its own
    "cancelled" mark (cheap, O(1)) and tells the heap via {!note_dead};
    once dead entries outnumber half the live ones the heap compacts
    itself (drops every entry the [live] predicate rejects and rebuilds
    in O(n)), so heap size stays O(live entries) rather than O(total
    cancellations) under timer-churn workloads. Compaction never changes
    the pop order of live entries.

    An entry is either a payload entry ({!add}) or a coded entry
    ({!add_coded}): a non-negative int and its key, with no payload and
    no pointer written. {!Sim} keeps one coded entry per non-empty FIFO
    lane, keyed by the lane's head; coded entries are always live and
    survive {!compact}. *)

type 'a t

val create : ?live:('a -> bool) -> unit -> 'a t
(** [live] classifies payloads during compaction and dead-count
    bookkeeping; the default accepts everything (no lazy deletion —
    {!note_dead} must only be paired with a real predicate). *)

val set_dummy : 'a t -> 'a -> unit
(** Provides the payload used to scrub vacated slots so popped entries
    are not retained by the backing array, and to fill the slot table
    as it grows. Pass a value made once at start-up ({!Sim} passes
    {!Sim.no_timer}), not one per heap: a scrubbed table then points at
    nothing of a finished run. Optional: without it the first added
    entry is used, pinning that single payload for the heap's lifetime
    (O(1) retention). Only the first call has effect.

    The slot table doubles through {!Tables.grow}, never with a fill
    that may be young, and the table it replaces is scrubbed as it is
    dropped. *)

val length : 'a t -> int
(** Entries currently in the heap, coded entries and dead (cancelled,
    not yet compacted) entries included. {!Sim}'s [heap_peak] is the
    high-water mark of this length, so a lane counts once however long
    its backlog; {!Sim.pending} adds the backlogs. *)

val is_empty : 'a t -> bool

val dead_count : 'a t -> int
(** Entries still in the heap whose payload the [live] predicate rejects
    — bounded by [length / 3] right after any compaction check. *)

val rebuilds : 'a t -> int
(** Number of lazy-deletion compactions performed so far. *)

val add : 'a t -> time:Time.t -> seq:int -> 'a -> unit

val add_coded : 'a t -> time:Time.t -> seq:int -> int -> unit
(** [add_coded h ~time ~seq code] adds a coded entry. [code] must be
    non-negative. *)

val note_dead : 'a t -> unit
(** Tells the heap one of its entries' payloads just became dead (the
    caller already flipped the state that [live] inspects). May trigger
    an O(n) compaction; amortized O(1) per cancellation. *)

val compact : 'a t -> unit
(** Explicit compaction: drops dead entries now and, when the backing
    array is at most a quarter full afterwards, shrinks it. An emptied
    heap otherwise keeps its capacity so bursty simulations do not
    re-allocate from scratch on every burst. *)

val top_time : 'a t -> Time.t
(** Timestamp of the earliest event (dead entries included: the
    dispatcher skips them as it pops); [Time.infinity] when the heap is
    empty. Unboxed, so the dispatcher's per-event peek allocates
    nothing. *)

val top_code : 'a t -> int
(** The earliest entry's code if it is a coded entry; a negative number
    if it carries a payload or the heap is empty. *)

val rekey_top : 'a t -> time:Time.t -> seq:int -> unit
(** Gives the earliest entry a new key, keeping its code or payload, and
    restores heap order with one sift-down. The new key must follow the
    old one in [(time, seq)] order; raises [Invalid_argument] otherwise
    or on an empty heap. This is how a lane's next entry replaces its
    fired head without a pop and a push. *)

val pop_payload : 'a t -> 'a
(** Removes the earliest event and returns its payload (its time is
    whatever {!top_time} just said). Dead entries are returned too
    (adjusting the dead count) — the caller decides whether to dispatch.
    Allocation-free; raises [Invalid_argument] on an empty heap or a
    coded earliest entry (see {!top_code}). *)

val pop_coded : 'a t -> unit
(** Removes the earliest entry, which must be coded; raises
    [Invalid_argument] otherwise. *)

val clear : ?release:('a -> unit) -> 'a t -> unit
(** Empties the heap and releases its arrays. [release] (default
    [ignore]) is first called on the payload of every entry still in the
    heap. The payload table is overwritten in place with the dummy
    before it is dropped: a table in the major heap keeps the cells a
    young payload was written into remembered until the next minor
    collection, which would promote whatever they still point to. *)
