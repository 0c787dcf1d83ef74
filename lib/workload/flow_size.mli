(** Empirical flow-size distributions as piecewise-linear inverse CDFs.

    A distribution is a list of [(size_segments, cum_prob)] knots with
    nondecreasing sizes and probabilities ending at 1; sampling inverts
    the CDF with linear interpolation between knots, so the built-in
    tables reproduce the published curves without storing every flow
    size. Sizes are measured in 1460-byte segments, the simulator's
    payload unit. *)

type t

val of_points : name:string -> (float * float) list -> t
(** [(size_segments, cum_prob)] knots. Sizes must be finite, ≥ 1
    segment and nondecreasing; probabilities nondecreasing in [0, 1]
    with the last equal to 1. A leading probability jump
    ([probs.(0) > 0]) is a point mass at the smallest size. Raises
    [Invalid_argument] otherwise. *)

val of_file : string -> t
(** Loads whitespace-separated ["size_segments cum_prob"] lines (['#']
    comments and blank lines skipped), named after the file's basename.
    Raises [Invalid_argument] on malformed lines or invalid knots, and
    [Sys_error] if the file cannot be read. *)

val web_search : t
(** The web-search workload of the DCTCP lineage: query traffic mixed
    with multi-MB background updates; mean ≈ 1.6 MB. *)

val data_mining : t
(** The data-mining workload of the VL2 lineage: extremely skewed — half
    the flows fit in one segment while the top 1% reach hundreds of MB. *)

val name : t -> string

val mean_segments : t -> float
(** Exact mean of the piecewise-linear distribution (trapezoid rule over
    the inverse CDF) — used to convert an offered-load fraction into a
    per-host arrival rate. *)

val sample : t -> Random.State.t -> int
(** Inverse-CDF sample rounded to the nearest whole segment, at least 1.
    Consumes exactly one draw from the given stream. *)

val scaled : t -> float -> t
(** [scaled t f] multiplies every knot size by [f] (clamped to ≥ 1
    segment) — for sweeping mean flow size without changing the shape.
    Raises [Invalid_argument] if [f ≤ 0]. *)
