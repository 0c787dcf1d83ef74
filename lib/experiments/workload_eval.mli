(** Workload-layer scenarios: open-loop FCT-slowdown runs on the sharded
    fat tree, and the Driver's sweep patterns (incast fanout sweep,
    all-to-all shuffle) printed as tables. *)

val websearch_spec : scale:float -> Run_spec.workload
(** The [wl.websearch.k8] run: k = 8, XMP-2, 40% load,
    web-search sizes at the repo's ×1/32 scale, horizon [0.25·scale]
    seconds plus [0.5·scale] drain. *)

val print_open_loop : Xmp_workload.Open_loop.result -> unit
(** Launch/completion counts, events, and the five-number FCT-slowdown
    table of one open-loop run. *)

val print_websearch : scale:float -> unit -> unit
(** Runs {!websearch_spec} and prints launch/completion counts plus the
    per-size-bucket FCT-slowdown table. *)

val print_incast_sweep : Run_spec.base -> unit
(** Per-fanout job completion times for each of {!sweep_schemes}. *)

val print_shuffle : Run_spec.base -> unit
(** All-to-all shuffle goodput summary for each of {!sweep_schemes}. *)
