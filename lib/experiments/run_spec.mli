(** One simulation run as a value, with one strict parser and one
    canonical printer.

    A spec is a list of whitespace-separated words:
    [TOPOLOGY SCHEME TRAFFIC [KEY=VALUE ...]], e.g.
    ["ft:4 XMP-4 incast horizon=2s"] or
    ["ls:4,2,4+ft:4 XMP-2 websearch horizon=10ms drain=50ms"], or one
    testbed panel [tb:FIGURE [KEY=VALUE ...]], e.g.
    ["tb:fig7 beta=5 mark=15"].

    - [TOPOLOGY] is [ft:K] (even [K ≥ 2]) or a bridged WAN [LEFT+RIGHT],
      each side [ft:K] or [ls:LEAVES,SPINES,HOSTS].
    - [SCHEME] is {!Xmp_workload.Scheme.of_name}'s [NAME-n]; β, K and
      the RTO floor are the run's [beta], [mark] and [rto-min] fields.
    - [TRAFFIC] is a pattern ([permutation], [random], [incast]; on
      [ft:K] only: one §5.2 fat-tree run) or a flow-size CDF
      ([websearch], [datamining] or a file of [size_segments cum_prob]
      lines: an open-loop run).

    Fields (each at most once unless noted; times are
    {!Xmp_engine.Fault_spec.time_of_string}'s [2s], [250ms], [40us] or
    integer ns):
    - every run: [seed], [horizon], [queue], [mark] (≥ 0), [beta] (≥ 2),
      [rto-min], [sack] ([true]/[false]), [size-scale];
    - pattern runs: [incast-jobs];
    - open-loop runs: [load], [drain], [flows] ([none] or ≥ 1);
    - pattern and WAN runs: [fault=SPEC] (repeatable,
      {!Xmp_engine.Fault_spec.spec_of_string}) and [fault-seed];
    - WAN runs: [trunk=DELAY_MS[:RATE_GBPS[:QUEUE_PKTS[:MARK_PKTS]]]]
      (repeatable; [MARK_PKTS] 0 is deep droptail) and [cross-dc]
      (a fraction; 0 or 1 when a data center has one host).
    - testbed panels ([tb:fig1], [tb:fig4], [tb:fig6], [tb:fig7]):
      [seed], [scale] (the factor on the paper's schedule, default 0.2),
      [fault=]/[fault-seed]; [beta] on fig4/6/7; [mark] on fig1
      (default 10) and fig7 (default 20); [cc] is fig1's [dctcp]
      (default) or [halving], and [xmp] on the others.

    An incast needs more hosts than its fanout of 8, so [ft:2 ... incast]
    is rejected.

    {!to_string} prints every field, floats exactly, so
    [of_string (to_string s) = Ok s], and the printed form is the run's
    identity: the fat-tree memo, scenario digests and the CLI's cache
    keys are all built from it. *)

type pattern = Permutation | Random | Incast

val pattern_name : pattern -> string
(** ["Permutation"], ["Random"], ["Incast"]. *)

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
      (** fault schedule armed before traffic starts (empty by default) *)
}
(** The fat-tree configuration of a pattern run (§5.2), shared by the
    Table 1 / Figs 8–11 / Table 3 views over the same runs. *)

val default_base : base
(** k = 4, 2.5 s horizon, queue 100, K = 10, β = 4, RTOmin 200 ms,
    size_scale 4 (8–64 MB permutation flows), 3 incast jobs. *)

val paper_scale_base : base
(** k = 8, 3 s horizon, 8 incast jobs, ×8 sizes — much closer to the
    paper's absolute setup (~10⁸ events per run). *)

type cdf = Websearch | Datamining | Cdf_file of string

type workload = {
  fabric : Xmp_net.Fabric.t;
  cross_dc : float;  (** WAN only: the fraction of flows across the cut *)
  faults : Xmp_engine.Fault_spec.t;  (** WAN only *)
  scheme : Xmp_workload.Scheme.t;
  cdf : cdf;
  size_scale : float;  (** applied to the CDF's sizes (default 1/32) *)
  load : float;
  seed : int;
  horizon : Xmp_engine.Time.t;
  drain : Xmp_engine.Time.t;
  max_flows : int option;
  queue_pkts : int;
  marking_threshold : int;
  beta : int;
  rto_min : Xmp_engine.Time.t;  (** on a WAN defaults to {!wan_rto_min} *)
  sack : bool;
}
(** An open-loop run; defaults are {!Xmp_workload.Open_loop.default_config}'s
    (WAN: one default trunk, cross-DC 0.5). *)

val workload : Xmp_net.Fabric.t -> Xmp_workload.Scheme.t -> cdf -> workload
(** An open-loop run with every other field at its default. *)

type panel =
  | Fig1 of { dctcp : bool; mark : int }  (** DCTCP or halving cwnd, K *)
  | Fig4 of { beta : int }
  | Fig6 of { beta : int }
  | Fig7 of { beta : int; mark : int }

type testbed = {
  panel : panel;
  scale : float;  (** multiplies the paper's schedule *)
  seed : int;
  faults : Xmp_engine.Fault_spec.t;
}
(** One panel of a testbed figure (Figures 1, 4, 6 and 7). *)

val testbed : panel -> testbed
(** A panel at scale 0.2 with the figure's own seed and no faults. *)

type t =
  | Pattern of { base : base; scheme : Xmp_workload.Scheme.t; pattern : pattern }
  | Workload of workload
  | Testbed of testbed

val of_string : string -> (t, string) result
(** Strict: unknown, repeated or misplaced fields and out-of-range values
    are errors of the form ["field 'NAME': why"]. A pattern on a WAN and
    a fault schedule on an open-loop [ft:K] run are rejected. *)

val to_string : t -> string

val key : t -> string
(** The digest input: {!to_string}, plus the CDF file's content digest
    when the spec names one. *)

val keys : t list -> string
(** The key of a scenario that makes several runs: their {!key}s, one per
    line. *)

val base_to_string : base -> string
(** [ft:K] and the fields of a pattern run over [base] — the key of the
    table views that run every (scheme, pattern) over one base. *)

val base_of_string : string -> (base, string) result
(** Parses {!base_to_string}'s form with {!of_string}'s pattern-run
    fields and messages; an absent field takes {!default_base}'s value. *)

val incast_base : base -> (base, string) result
(** [Ok base] when [base]'s fat tree has the hosts an incast needs, else
    the [field 'traffic'] error {!of_string} gives [ft:K SCHEME incast]. *)

val wan_rto_min :
  left:Xmp_net.Wan.dc_spec ->
  right:Xmp_net.Wan.dc_spec ->
  trunks:Xmp_net.Wan.trunk list ->
  Xmp_engine.Time.t
(** The WAN RTO floor: half the slowest zero-load cross-DC RTT, at least
    1 ms. *)

val driver_config :
  base -> Xmp_workload.Scheme.t -> pattern -> Xmp_workload.Driver.config
(** The driver configuration a pattern run uses (building block for
    variations such as Table 2's split assignment and the ablations). *)

val result : base -> Xmp_workload.Scheme.t -> pattern -> Xmp_workload.Driver.result
(** Runs (or returns the memoized) pattern run; the memo is keyed by
    {!to_string}. *)

val config : workload -> Xmp_workload.Open_loop.config
(** The open-loop configuration the run uses. *)

val simulate : ?domains:int -> workload -> Xmp_workload.Open_loop.result
(** [domains] (default 1) never changes the result. *)

val simulate_panel :
  telemetry:Xmp_telemetry.Sink.t -> testbed -> unit -> unit
(** Runs the panel and returns its printer. *)

val run : ?domains:int -> t -> (string * string) list
(** Prints the run's report and returns its CSV exports as
    [(suffix, contents)]: none for a pattern or testbed run, [.fct.csv] and
    [.cdf.csv] for an open-loop run, plus [.goodput.csv] on a WAN. A
    pattern run with a fault schedule reports flows, goodput and the
    injector's drop and link-transition counts. *)

val scratch_net : t -> Xmp_net.Network.t
(** The spec's topology on a throwaway one-shard cluster with one-slot
    queues: the links, tags and hosts its fault targets may name. *)
