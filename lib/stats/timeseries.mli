(** Fixed-width time-bucketed accumulator, used to turn per-packet byte
    counters into the rate-versus-time series plotted in the paper's
    figures. Bucket indices are in simulated seconds. *)

type t

val create : bucket:float -> horizon:float -> t
(** [create ~bucket ~horizon] covers \[0, horizon) seconds with buckets of
    [bucket] seconds each.

    @raise Invalid_argument unless [bucket] is finite and positive and
    [horizon] is finite with [horizon >= bucket] (at least one bucket). *)

val record : t -> time_s:float -> float -> unit
(** Adds a value into the bucket containing [time_s]. Samples outside
    \[0, horizon) are dropped. *)

val rates : t -> float array
(** Per-bucket totals divided by the bucket width — i.e. bytes recorded per
    bucket become bytes/second. *)
