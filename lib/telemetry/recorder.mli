(** Bounded ring-buffer flight recorder for trace {!Event}s.

    Recording is O(1); once [capacity] entries are held, each new entry
    overwrites the oldest, so a recorder always retains the most recent
    window of a run and reports how much it had to discard. Timestamps are
    integer nanoseconds of simulated time (the representation of
    [Xmp_engine.Time.t]). *)

type entry = {
  time_ns : int;
  event : Event.t;
}

type t

val create : capacity:int -> t
(** A recorder that retains at most [capacity] entries. Memory follows
    occupancy: the ring starts empty and doubles as entries arrive, up to
    [capacity] slots, so a large bound costs nothing until it is used.
    @raise Invalid_argument if [capacity <= 0]. *)

val record : t -> time_ns:int -> Event.t -> unit

val total : t -> int
(** Entries ever recorded, including overwritten ones. *)

val length : t -> int
(** Entries currently retained: [min total capacity]. *)

val dropped : t -> int
(** Entries lost to overwriting: [max 0 (total - capacity)]. *)

val iter : (entry -> unit) -> t -> unit
(** Oldest retained entry first. *)
