(** Fat-tree evaluation (§5.2): one simulation per (scheme, pattern) pair,
    shared across Table 1, Figures 8–11 and Table 3 exactly as the paper
    derives them from the same runs. Results are memoized per
    configuration within the process. *)

type pattern_id = Permutation | Random | Incast

val pattern_name : pattern_id -> string

type base = {
  k : int;
  horizon : Xmp_engine.Time.t;
  seed : int;
  queue_pkts : int;
  marking_threshold : int;
  beta : int;
  rto_min : Xmp_engine.Time.t;
  sack : bool;
  size_scale : float;
      (** multiplies the default (×1/32-of-paper) flow sizes *)
  incast_jobs : int;
  faults : Xmp_engine.Fault_spec.t;
      (** fault schedule armed before traffic starts (empty by default);
          folded into the memoization key via its canonical parameters *)
}

val default_base : base
(** k = 4, 2.5 s horizon, queue 100, K = 10, β = 4, RTOmin 200 ms,
    size_scale 4 (8–64 MB permutation flows), 3 incast jobs. *)

val paper_scale_base : base
(** k = 8, 3 s horizon, 8 incast jobs, ×8 sizes — much closer to the
    paper's absolute setup (~10⁸ events per run). *)

val driver_config :
  base -> Xmp_workload.Scheme.t -> pattern_id -> Xmp_workload.Driver.config
(** The driver configuration a run uses (building block for variations
    such as Table 2's split assignment and the ablations). *)

val result : base -> Xmp_workload.Scheme.t -> pattern_id ->
  Xmp_workload.Driver.result
(** Runs (or returns the memoized) simulation. *)

val cache_size : unit -> int
(** Number of memoized runs currently held for this process. *)

val clear_cache : unit -> unit
(** Drops every memoized run. Runner workers call this between scenarios
    when they must prove results carry no cross-scenario state. *)

val with_cache : (unit -> 'a) -> 'a
(** [with_cache f] runs [f] against a fresh, empty memo table and
    restores the previous table afterwards (exception-safe), so a scoped
    evaluation can neither observe earlier runs nor leak its own into
    the enclosing scope. *)

val print_fault_eval :
  base -> Xmp_workload.Scheme.t -> pattern_id -> unit
(** One run of the base's fault schedule with a live telemetry sink:
    prints the schedule and a summary table (flows, goodput, jobs,
    injected drops, link-down/link-up/injected-drop event counts). Not
    memoized. *)

val print_table1 : base -> unit

val print_fig8 : base -> unit

val print_fig9 : base -> unit

val print_fig10 : base -> unit

val print_fig11 : base -> unit

val print_table3 : base -> unit
