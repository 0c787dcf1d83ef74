(** The data-transfer schemes the paper evaluates, unified behind one
    launcher. A scheme is a {e kind} (the congestion controller), a
    subflow count, and a set of typed per-scheme tunables; values are
    built by the smart constructors below, which validate ranges, and
    print/parse through the strict [NAME-<subflows>[:key=val,...]]
    grammar of {!name}/{!of_name}. *)

type kind =
  | Dctcp  (** single-path DCTCP over ECN switches *)
  | Reno  (** plain single-path TCP, loss-driven *)
  | Lia  (** MPTCP with Linked Increases *)
  | Olia  (** MPTCP with OLIA (extension) *)
  | Xmp  (** MPTCP with XMP (BOS + TraSh) *)
  | Balia  (** MPTCP with BALIA (extension) *)
  | Veno  (** MPTCP with MP-Veno (extension) *)
  | Amp  (** MPTCP with AMP (arXiv:1707.00322) *)

type ect_mode =
  | Counted  (** DCTCP-style exact CE echo (AMP's default) *)
  | Classic  (** RFC 3168: ECE latched until the sender's CWR *)

type tunables = {
  xmp_beta : int option;
      (** XMP's window-reduction divisor β; [None] defers to the ambient
          {!transport_overrides.beta} *)
  xmp_k : int option;
      (** the switch marking threshold K (packets) this scheme was tuned
          for; carried so a driver can configure the fabric to match
          (see {!marking_threshold}) *)
  veno_beta : float option;
      (** MP-Veno's backlog threshold β in segments; [None] means the
          module default, 3 *)
  amp_ect : ect_mode;  (** AMP's ECN echo mode (default [Counted]) *)
  rto_min : Xmp_engine.Time.t option;
      (** per-scheme RTO floor; [None] defers to the ambient
          {!transport_overrides.rto_min} (generic key, any kind) *)
  rto_max : Xmp_engine.Time.t option;
      (** per-scheme RTO ceiling; [None] defers to the ambient
          {!transport_overrides.rto_max} (generic key, any kind) *)
}

type t = private { kind : kind; subflows : int; tunables : tunables }
(** Private: build values with the constructors below so invariants
    (subflow count ≥ 1, tunables only on the kind they apply to, names
    that round-trip) hold by construction. Matching and field access
    are unrestricted. *)

(** {1 Constructors} *)

val dctcp : t

val reno : t

val lia : int -> t

val olia : int -> t

val xmp : ?beta:int -> ?k:int -> int -> t
(** [xmp ?beta ?k n] — XMP with [n] subflows. [beta ≥ 2] overrides the
    ambient window-reduction divisor for this scheme's flows; [k ≥ 1]
    records the marking threshold the scheme expects from the fabric. *)

val balia : int -> t

val veno : ?beta:float -> int -> t
(** [veno ?beta n] — MP-Veno with [n] subflows. [beta] (> 0, in
    segments) replaces the default backlog threshold of 3. It must
    survive ["%g"] printing exactly (plain decimal, no exponent) so
    {!name} round-trips; e.g. [2.5] is accepted, [1e-7] is not. *)

val amp : ?ect:ect_mode -> int -> t
(** [amp ?ect n] — AMP with [n] subflows, echoing CE marks in [ect]
    mode (default [Counted]). *)

val with_rto :
  ?rto_min:Xmp_engine.Time.t -> ?rto_max:Xmp_engine.Time.t -> t -> t
(** [with_rto ?rto_min ?rto_max t] pins this scheme's RTO floor/ceiling,
    overriding the ambient {!transport_overrides} for its flows — how a
    WAN topology gives its schemes an ms-scale floor without touching
    the driver-wide defaults. Unset arguments keep the current values;
    raises if the result has [rto_min > rto_max]. *)

(** {1 Names} *)

val name : t -> string
(** Paper-style name plus non-default tunables: "DCTCP", "TCP",
    "LIA-4", "XMP-2", "XMP-2:beta=6,k=20", "VENO-2:beta=2.5",
    "AMP-2:ect=classic", "XMP-2:rtomin=1000000". Keys appear in a
    fixed order (kind-specific first, then the generic [rtomin]/
    [rtomax], in nanoseconds) and only when they differ from the
    default, so the name is canonical. *)

val of_name : string -> t option
(** Inverse of {!name} (case-insensitive): strict
    [NAME-<subflows>[:key=val,...]]. The subflow suffix must be a bare
    decimal ≥ 1 — trailing garbage ("XMP-2x"), signs, hex and
    underscores are rejected. Tunable keys must belong to the scheme
    ([beta]/[k] for XMP, [beta] for VENO, [ect] for AMP; [rtomin]/
    [rtomax] in whole nanoseconds on any kind), appear at most once,
    and carry values in range; anything else is [None].
    [of_name (name t) = Some t] for every [t]. *)

(** {1 Properties} *)

val n_subflows : t -> int

val uses_ecn : t -> bool

val marking_threshold : t -> int option
(** The switch marking threshold K this scheme was tuned for (XMP's [k]
    tunable) — [None] for every other scheme or when unset. Drivers use
    it to override their fabric-wide threshold under a uniform
    assignment. *)

type transport_overrides = {
  rto_min : Xmp_engine.Time.t;
  rto_max : Xmp_engine.Time.t;
  beta : int;  (** XMP's window-reduction divisor *)
  sack : bool;  (** selective acknowledgements for every flow *)
}

val default_overrides : transport_overrides
(** RTOmin 200 ms, RTOmax 60 s, β = 4, SACK off (the paper's
    RTO-dominated regime). Per-scheme [rtomin]/[rtomax] tunables win
    over these (see {!with_rto}). *)

val tcp_config : t -> transport_overrides -> Xmp_transport.Tcp.config
(** The transport configuration this scheme runs with: ECT + capped echo
    for XMP, ECT + exact echo for DCTCP and AMP ([Counted]; AMP in
    [Classic] mode uses RFC 3168 echo instead), plain for the
    loss-driven schemes (TCP/LIA/OLIA/BALIA/VENO). *)

val coupling : t -> transport_overrides -> Xmp_mptcp.Coupling.t
(** The coupled controller a flow of this scheme instantiates (exposed
    so conformance rigs can drive it without a network). Scheme-level
    tunables win over [overrides]: XMP's [beta] replaces
    [overrides.beta], Veno's [beta] replaces the module default. *)

type observer = Xmp_mptcp.Mptcp_flow.observer = {
  on_complete : Xmp_mptcp.Mptcp_flow.t -> unit;
  on_subflow_acked : int -> int -> unit;
  on_rtt_sample : Xmp_engine.Time.t -> unit;
}
(** Flow lifecycle callbacks, re-exported from
    {!Xmp_mptcp.Mptcp_flow.observer}. Build one by record update over
    {!silent}: [{ Scheme.silent with on_complete = ... }]. This replaces
    the former trio of [?on_complete]/[?on_subflow_acked]/
    [?on_rtt_sample] optional arguments: passing part of an observer
    means writing exactly the fields you care about, and adding a future
    callback no longer grows every launcher's signature. For passive
    measurement (rates, queue series) prefer the simulator's telemetry
    sink and leave the observer {!silent}. *)

val silent : observer
(** Ignores every event — the default for {!launch}. *)

type launcher
(** A scheme resolved against transport overrides: its transport
    configuration and its coupling, built once and shared by every flow
    launched through it, so a flow keeps no copy of either. *)

val launcher : t -> transport_overrides -> launcher
(** Build once per run (or per scheme of a run) and launch every flow of
    that scheme with it. *)

val launch :
  net:Xmp_net.Network.t ->
  ?rcv_net:Xmp_net.Network.t ->
  flow:int ->
  src:int ->
  dst:int ->
  paths:int list ->
  ?size_segments:int ->
  ?start_at:Xmp_engine.Time.t ->
  ?observer:observer ->
  launcher ->
  Xmp_mptcp.Mptcp_flow.t
(** Starts a flow of the launcher's scheme. [paths] carries up to {!n_subflows}
    selectors — fewer when the host pair has less path diversity than the
    scheme wants (e.g. XMP-4 within a rack). [observer] (default
    {!silent}) receives the flow's lifecycle events. [rcv_net] places the
    receiver half on another shard's network and [start_at] defers the
    first transmission, as in {!Xmp_mptcp.Mptcp_flow.create}. *)

val pick_paths :
  rng:Random.State.t -> available:int -> wanted:int -> int list
(** [wanted] distinct path selectors drawn uniformly from
    [0..available-1] (fewer if [available < wanted]). This models the
    choice of destination addresses when subflows are established. *)
