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

    Every entry carries a payload. {!Sim} keeps its timer and closure
    events here and its lane heads in a heap of its own, which it
    reports through {!set_outside} so that compaction counts them as
    live entries. *)

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
(** Entries currently in the heap, dead (cancelled, not yet compacted)
    entries included. *)

val is_empty : 'a t -> bool

val dead_count : 'a t -> int
(** Entries still in the heap whose payload the [live] predicate rejects
    — bounded by [(length + outside) / 3] right after any compaction
    check (see {!set_outside}). *)

val rebuilds : 'a t -> int
(** Number of lazy-deletion compactions performed so far. *)

val set_outside : 'a t -> int -> unit
(** [set_outside h n] says that the owner keeps [n] more live entries
    outside [h] (default 0). Compaction runs once dead entries outnumber
    half of all live ones, these included, so its moments do not depend
    on where the owner keeps them. *)

val add : 'a t -> time:Time.t -> seq:int -> 'a -> unit

val note_dead : 'a t -> unit
(** Tells the heap one of its entries' payloads just became dead (the
    caller already flipped the state that [live] inspects). May trigger
    an O(n) compaction; amortized O(1) per cancellation. *)

val top_time : 'a t -> Time.t
(** Timestamp of the earliest event (dead entries included: the
    dispatcher skips them as it pops); [Time.infinity] when the heap is
    empty. Unboxed, so the dispatcher's per-event peek allocates
    nothing. *)

val top_seq : 'a t -> int
(** Sequence number of the earliest event; [max_int] when the heap is
    empty. With {!top_time}, what the dispatcher compares against its
    other queue's root. *)

val pop_payload : 'a t -> 'a
(** Removes the earliest event and returns its payload (its time is
    whatever {!top_time} just said). Dead entries are returned too
    (adjusting the dead count) — the caller decides whether to dispatch.
    Allocation-free; raises [Invalid_argument] on an empty heap. *)

val clear : ?release:('a -> unit) -> 'a t -> unit
(** Empties the heap and releases its arrays. [release] (default
    [ignore]) is first called on the payload of every entry still in the
    heap. The payload table is overwritten in place with the dummy
    before it is dropped: a table in the major heap keeps the cells a
    young payload was written into remembered until the next minor
    collection, which would promote whatever they still point to. *)
