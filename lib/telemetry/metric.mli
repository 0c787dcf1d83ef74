(** Scalar metric shapes held by the telemetry {!Registry}.

    Every update is O(1) and every metric is bounded in memory regardless
    of sample count, so instrumentation on simulator hot paths cannot grow
    the heap with the length of a run. For unbounded-precision offline
    statistics use [Xmp_stats.Distribution] instead. *)

module Counter : sig
  (** A monotonically non-decreasing integer count. *)

  type t

  val create : unit -> t

  val inc : ?by:int -> t -> unit
  (** Adds [by] (default 1). @raise Invalid_argument if [by < 0]. *)

  val value : t -> int
end

module Gauge : sig
  (** A last-write-wins float sample. *)

  type t

  val create : unit -> t
  val set : t -> float -> unit

  val value : t -> float
  (** Most recent value; [0.] before any {!set}. *)

  val samples : t -> int
  (** Number of {!set} calls. *)
end

module Histogram : sig
  (** A log-bucketed histogram with bounded relative error.

      Samples [v > 0] land in bucket [floor(log v / log gamma)] where
      [gamma = 1.05]; percentiles read off the bucket midpoint are
      accurate to about 2.5% relative error. Samples [<= 0] are
      folded into a dedicated zero bucket; non-finite samples are ignored.
      Memory is proportional to the number of occupied buckets. *)

  type t

  val create : unit -> t

  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val mean : t -> float
  (** Exact (tracked separately from the buckets); [0.] when empty. *)

  val min_value : t -> float
  (** Exact minimum; [0.] when empty. *)

  val max_value : t -> float
  (** Exact maximum; [0.] when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [0..100] (clamped), nearest-rank over
      the buckets, clamped to the observed [min/max]; [0.] when empty. *)
end
