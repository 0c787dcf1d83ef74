(** Central metrics registry.

    Metrics are keyed by ["subsystem/name"] plus an optional {!Label.t}
    set, rendered as e.g. ["net/queue_depth{queue=bottleneck0}"]. Accessors
    are get-or-create and memoizing: the first call registers the metric,
    subsequent calls with the same key return the same instance, and a key
    collision across metric types raises. Enumeration is sorted by full
    name, so exports are deterministic. *)

type metric =
  | Counter of Metric.Counter.t
  | Gauge of Metric.Gauge.t
  | Histogram of Metric.Histogram.t

type t

val create : unit -> t

val counter :
  t -> ?labels:Label.t -> subsystem:string -> name:string -> unit ->
  Metric.Counter.t
(** @raise Invalid_argument on a reserved character in [subsystem]/[name]
    (slash, equals, comma, brace, double-quote or newline) or if the key exists as another
    metric type. *)

val gauge : t -> subsystem:string -> name:string -> unit -> Metric.Gauge.t

val histogram :
  t -> ?labels:Label.t -> subsystem:string -> name:string -> unit ->
  Metric.Histogram.t

val cardinal : t -> int

val to_alist : t -> (string * metric) list
(** (full name, metric) pairs sorted by full name. *)

val iter : (string -> metric -> unit) -> t -> unit
(** In sorted full-name order. *)
