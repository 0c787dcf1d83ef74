(** Canonical label sets attached to telemetry metrics.

    Labels distinguish instances of the same logical metric — e.g. the
    per-queue drop counter [net/drops] carries [queue=core0-agg1]. A label
    set is canonicalized (sorted by key) at construction so that its
    rendered form, e.g. ["flow=3,subflow=1"], is a stable identity that the
    {!Registry} can key on. *)

type t = private (string * string) list
(** Sorted, duplicate-free (key, value) pairs. *)

val none : t
(** The empty label set. *)

val v : (string * string) list -> t
(** Canonicalizes a label set: sorts pairs by key.

    @raise Invalid_argument on duplicate keys, empty components, or
    components containing one of the reserved characters
    equals, comma, brace, double-quote or newline. *)

val is_empty : t -> bool

val to_string : t -> string
(** ["k1=v1,k2=v2"] in key order; [""] for {!none}. *)
