(** Measurement collection for fat-tree evaluation runs: everything needed
    to regenerate Tables 1–3 and Figures 8–11, plus streaming FCT-slowdown
    accumulators for the open-loop workload scenarios.

    All goodput/RTT/job aggregates are maintained incrementally on every
    {!record_flow} / {!record_rtt} / {!record_job}, so memory stays bounded
    at millions of flows. Retaining the individual {!flow_record}s is
    opt-in via [keep_flows]. *)

module Distribution = Xmp_stats.Distribution

type flow_record = {
  flow : int;
  scheme : Scheme.t;
  src : int;  (** host index *)
  dst : int;
  locality : Xmp_net.Topology.locality;
  size_segments : int;
  started : Xmp_engine.Time.t;
  finished : Xmp_engine.Time.t;
  goodput_bps : float;
  truncated : bool;
      (** flow was still running at the horizon; its goodput is measured
          over start → horizon (the paper's "whole running time" for flows
          whose run the simulation cut off). Short-lived truncated flows
          (< 1/10 of the horizon) are not recorded at all. *)
}

type t

val create : ?keep_flows:bool -> rtt_subsample:int -> unit -> t
(** RTT samples are decimated by [rtt_subsample] (≥ 1) to bound memory.
    [keep_flows] (default [false]) retains every {!flow_record} for
    {!completed_flows}; the streaming aggregates below are maintained
    either way. *)

val record_flow : t -> flow_record -> unit

val record_rtt :
  t -> locality:Xmp_net.Topology.locality -> Xmp_engine.Time.t -> unit

val record_job : t -> fanout:int -> Xmp_engine.Time.t -> unit
(** A completed incast job of [fanout] servers with its completion time,
    filed under [fanout]. *)

val record_fct :
  t ->
  size_segments:int ->
  fct:Xmp_engine.Time.t ->
  ideal:Xmp_engine.Time.t ->
  unit
(** Record one flow-completion-time sample as a slowdown [fct/ideal],
    where [ideal] is the zero-load transfer time at line rate (must be
    positive). Filed under the matching flow-size bucket and "all". *)

val completed_flows : t -> flow_record list
(** All recorded flows, including horizon-truncated ones.
    @raise Invalid_argument
      when the collector was created without [~keep_flows:true]. *)

val keeps_flows : t -> bool

val n_completed_flows : t -> int

val n_truncated_flows : t -> int
(** Flows recorded as horizon-truncated (streaming count; available even
    without [keep_flows]). *)

val mean_goodput_bps : t -> float
(** Over all recorded large flows (Table 1 cells). *)

val mean_goodput_bps_of_scheme : t -> Scheme.t -> float
(** Restricted to flows of one scheme (Table 2 cells). *)

val goodputs : t -> Distribution.t
(** All completed-flow goodputs, bps (Figure 8a/b CDFs). *)

val goodputs_by_locality :
  t -> (Xmp_net.Topology.locality * Distribution.t) list
(** Figure 8c/d bars. Localities with no flows are omitted. *)

val rtts_by_locality :
  t -> (Xmp_net.Topology.locality * Distribution.t) list
(** Milliseconds (Figure 10 bars). *)

val job_times_ms : t -> Distribution.t
(** Figure 9 CDF / Table 3: every job. With one fanout this is that
    fanout's own distribution; with several, a fresh merge of theirs. *)

val jobs_over_ms : t -> float -> float
(** Fraction of jobs slower than the threshold (Table 3's ">300ms"). *)

val job_times_by_fanout : t -> (int * Distribution.t) list
(** Per-fanout job completion times (ms), ascending fanout; only fanouts
    passed to {!record_job} appear. *)

val fct_slowdowns : t -> (string * Distribution.t) list
(** Non-empty FCT-slowdown distributions per size bucket, smallest bucket
    first, with an aggregate ["all"] entry last. Bucket labels are byte
    ranges ("0-10KB" … ">10MB"); a flow's bucket is its size in 1460-byte
    segments times 1460. *)

val fct_summary_csv : t -> string
(** CSV [bucket,samples,mean,p50,p90,p99,max] over {!fct_slowdowns}. *)

val fct_cdf_csv : ?points:int -> t -> string
(** CSV [bucket,slowdown,cum_prob] with [points] (default 100) CDF points
    per bucket. *)

val merge : into:t -> t -> unit
(** Fold a second collector's aggregates into [into] (per-pod collectors
    after a sharded run). Call in pod-index order for deterministic
    float-summation and distribution order. Per-flow records are carried
    over only when both collectors keep them. *)

val utilization_by_layer :
  net:Xmp_net.Network.t ->
  duration:Xmp_engine.Time.t ->
  (string * Distribution.t) list
(** Per-layer link utilization distributions at the end of a run
    (Figure 11 bars), in {!Xmp_net.Topology.layers} order. Tags with no
    links are dropped. *)
