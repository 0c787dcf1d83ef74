(** Named per-subflow rate series for the time-series figures: feeds
    segment-acked callbacks into time buckets, then reads back normalized
    rate curves. *)

type t

val create : sim:Xmp_engine.Sim.t -> bucket_s:float -> horizon_s:float -> t

val recorder : t -> string -> int -> unit
(** [recorder t name] returns a callback suitable for
    [on_segment_acked]/[on_subflow_acked]-style hooks: each call records
    [segments * payload_bytes * 8] bits at the current simulated time
    under series [name]. Series are created on first use and remembered
    in first-use order. *)

val names : t -> string list

val rates_bps : t -> string -> float array
(** Per-bucket average bps for the series (zeros if never recorded). *)

val normalized : t -> string -> norm_bps:float -> float array

val bucket_s : t -> float

val window_mean :
  t -> string -> from_s:float -> until_s:float -> float
(** Mean bps over the buckets fully inside [from_s, until_s). *)
