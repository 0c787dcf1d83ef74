(** Bandwidth and size units.

    Rates are integer bits per second, so serialization times stay exact in
    integer nanoseconds. *)

type rate = int
(** Bits per second. *)

val mbps : float -> rate

val gbps : float -> rate

val tx_time : rate -> bytes:int -> Xmp_engine.Time.t
(** Serialization delay of [bytes] at the given rate, rounded up to a whole
    nanosecond so a link can never send faster than its rate. *)

val to_gbps : rate -> float

val bytes_per_sec : rate -> float
