(** Small int tables that switches route by, one byte per entry.

    A topology builds its tables once per fabric, so a switch maps a
    destination or a path selector to a port with one load instead of
    an integer [/] or [mod] per packet (DESIGN §6k). *)

type t

val make : int -> (int -> int) -> t
(** [make n f] tabulates [f 0], ..., [f (n - 1)]. The table is empty
    when a value is negative or does not fit a byte, so every lookup
    misses and the caller's own arithmetic answers. *)

val find : t -> int -> int
(** [find t i] is entry [i] (with [i >= 0]), or [-1] past the table's
    end. *)
