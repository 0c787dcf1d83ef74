(** Workload-layer scenarios: open-loop FCT-slowdown runs on the sharded
    fat tree, and the Driver's sweep patterns (incast fanout sweep,
    all-to-all shuffle) printed as tables. *)

val websearch_config : scale:float -> Xmp_workload.Open_loop.config
(** The [wl.websearch.k8] configuration: k = 8, XMP-2, 40% load,
    web-search sizes at the repo's ×1/32 scale, horizon [0.25·scale]
    seconds plus [0.5·scale] drain. *)

val print_websearch : scale:float -> unit -> unit
(** Runs {!websearch_config} and prints launch/completion counts plus the
    per-size-bucket FCT-slowdown table. *)

val print_incast_sweep : Fatree_eval.base -> unit
(** Per-fanout job completion times for each of {!sweep_schemes}. *)

val print_shuffle : Fatree_eval.base -> unit
(** All-to-all shuffle goodput summary for each of {!sweep_schemes}. *)
