(** Empirical distribution over collected float samples: quantiles, CDF
    sampling, and the five-number summaries used throughout the paper's
    figures (min / 10th / 50th / 90th / max). *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val is_empty : t -> bool

val mean : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0,100], by linear interpolation between
    order statistics. Raises [Invalid_argument] when empty or [p] is out of
    range. *)

val max : t -> float

val five_number : t -> float * float * float * float * float
(** [(min, p10, p50, p90, max)] — the summary drawn as the paper's vertical
    bars in Figures 8(c,d), 10 and 11. *)

val cdf_points : t -> int -> (float * float) list
(** [cdf_points t n] samples the empirical CDF at [n] evenly spaced
    cumulative probabilities, returning [(value, probability)] pairs —
    enough to re-draw the paper's CDF figures as a table. *)

val fraction_above : t -> float -> float
(** Fraction of samples strictly greater than the threshold. *)

val values : t -> float array
(** Sorted copy of all samples. *)
