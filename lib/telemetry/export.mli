(** Structured export of a run's telemetry as CSV or JSONL strings.

    Pure string builders — callers decide where the bytes go ([xmp_sim
    trace] writes files; tests compare in memory). Output is
    deterministic: events in recorder (time) order, metrics sorted by full
    name. *)

val events_csv : ?keep:(Event.t -> bool) -> Recorder.t -> string
(** Header line ({!Event.csv_header}) plus one row per retained event
    passing [keep] (default: all). *)

val events_jsonl : ?keep:(Event.t -> bool) -> Recorder.t -> string
(** One JSON object per line, no header. *)

val metrics_csv : Registry.t -> string
(** Columns [metric,type,count,value,mean,p50,p99,max]; columns a metric
    type lacks are empty. For counters [value] is the count; for gauges
    the last sample; for histograms the sum. *)

val metrics_jsonl : Registry.t -> string
(** One JSON object per metric with type-specific fields (histograms get
    count/sum/mean/p50/p99/min/max). *)
