(** The data-transfer schemes the paper evaluates, unified behind one
    launcher. A scheme is a {e kind} (the congestion controller) and a
    subflow count; values print/parse through the strict
    [NAME-<subflows>] grammar of {!name}/{!of_name}. Every other knob
    (XMP's β, the switch threshold K, the RTO floor) is a field of the
    run, passed in {!transport_overrides} or to the fabric, so each
    value has one source. *)

type kind =
  | Dctcp  (** single-path DCTCP over ECN switches *)
  | Reno  (** plain single-path TCP, loss-driven *)
  | Lia  (** MPTCP with Linked Increases *)
  | Olia  (** MPTCP with OLIA (extension) *)
  | Xmp  (** MPTCP with XMP (BOS + TraSh) *)
  | Balia  (** MPTCP with BALIA (extension) *)
  | Veno  (** MPTCP with MP-Veno (extension) *)
  | Amp  (** MPTCP with AMP (arXiv:1707.00322) *)

type t = private { kind : kind; subflows : int }
(** Private: build values with the constructors below so the subflow
    count is ≥ 1 and single-path kinds have one subflow. Matching and
    field access are unrestricted. *)

(** {1 Constructors} *)

val dctcp : t

val reno : t

val lia : int -> t

val olia : int -> t

val xmp : int -> t

val balia : int -> t

val veno : int -> t

val amp : int -> t

(** {1 Names} *)

val name : t -> string
(** Paper-style name: "DCTCP", "TCP", "LIA-4", "XMP-2". *)

val of_name : string -> t option
(** Inverse of {!name} (case-insensitive): strict [NAME-<subflows>],
    plus [DCTCP], [TCP] and [RENO]. The subflow suffix must be a bare
    decimal ≥ 1 — trailing garbage ("XMP-2x", "XMP-2:beta=6"), signs,
    hex and underscores are rejected. [of_name (name t) = Some t] for
    every [t]. *)

(** {1 Properties} *)

val n_subflows : t -> int

val uses_ecn : t -> bool

type transport_overrides = {
  rto_min : Xmp_engine.Time.t;
  beta : int;  (** XMP's window-reduction divisor *)
  sack : bool;  (** selective acknowledgements for every flow *)
}

val default_overrides : transport_overrides
(** RTOmin 200 ms, β = 4, SACK off (the paper's RTO-dominated regime).
    The RTO ceiling is {!Xmp_transport.Tcp.default_config}'s. *)

val tcp_config : t -> transport_overrides -> Xmp_transport.Tcp.config
(** The transport configuration this scheme runs with: ECT + capped echo
    for XMP, ECT + exact echo for DCTCP and AMP, plain for the
    loss-driven schemes (TCP/LIA/OLIA/BALIA/VENO). *)

val coupling : t -> transport_overrides -> Xmp_mptcp.Coupling.t
(** The coupled controller a flow of this scheme instantiates (exposed
    so conformance rigs can drive it without a network); XMP's takes
    [overrides.beta]. *)

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
