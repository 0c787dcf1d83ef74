(** An MPTCP flow: several TCP subflows over distinct paths, pulling
    segments from one shared source and governed by a coupled congestion
    controller.

    Each subflow is a full {!Xmp_transport.Tcp} connection (own sequence
    space, RTT estimator, loss recovery). Subflows take new segments from
    the flow's shared counter as their windows open, so the split across
    paths is decided purely by congestion control — the paper's setting,
    where rate is limited only by congestion windows. *)

type t

type observer = {
  on_complete : t -> unit;
      (** fires once, when all segments of a sized flow are acknowledged *)
  on_subflow_acked : int -> int -> unit;
      (** [on_subflow_acked idx n]: subflow [idx] got [n] segments newly
          acknowledged *)
  on_rtt_sample : Xmp_engine.Time.t -> unit;
      (** a fresh RTT sample on any subflow *)
}
(** Callbacks into the application for flow lifecycle events. Build one
    with record update over {!silent}:
    [{ Mptcp_flow.silent with on_complete = ... }]. For rate/occupancy
    series prefer the simulator's telemetry sink; an observer is for
    logic that must react (experiment probes, workload drivers). *)

val silent : observer
(** Ignores everything — the default observer. *)

val create :
  net:Xmp_net.Network.t ->
  ?rcv_net:Xmp_net.Network.t ->
  flow:int ->
  src:int ->
  dst:int ->
  paths:int list ->
  coupling:Coupling.t ->
  ?config:Xmp_transport.Tcp.config ->
  ?size_segments:int ->
  ?start_at:Xmp_engine.Time.t ->
  ?observer:observer ->
  unit ->
  t
(** One subflow per element of [paths] (the subflow's path selector).
    [size_segments = None] means an unbounded bulk flow. [observer]
    defaults to {!silent}. Raises [Invalid_argument] when [src = dst].

    Without a future [start_at] every subflow is built, registered and
    sending when [create] returns, split receivers included. A future
    [start_at] builds nothing yet: the flow keeps only its handle and one
    start event per path, and each event builds its subflow
    ({!Xmp_transport.Tcp.connect}, endpoint registration, coupling
    attach). A split flow's receivers then open only with
    {!open_receivers}. {!started_at} reports [start_at] and goodput is
    measured from there. The flow completes once every path is built
    and finished. *)

val add_subflow : t -> path:int -> Xmp_transport.Tcp.t
(** Establishes an additional subflow on [path] (Figure 6's staggered
    subflow arrivals). It joins the flow's coupling group and shares the
    remaining data; on a split flow its receiver opens with the next
    {!open_receivers}. Raises [Invalid_argument] on a completed flow and
    on one whose paths are not all built yet. *)

val flow_id : t -> int

val src : t -> int

val dst : t -> int

val subflows : t -> Xmp_transport.Tcp.t array

val segments_acked : t -> int
(** Across all subflows. *)

val size_segments : t -> int option
(** The size the flow was created with; [None] for bulk flows. *)

val is_complete : t -> bool

val started_at : t -> Xmp_engine.Time.t

val goodput_bps : t -> float
(** Payload bits per second over the flow's lifetime: from start to
    completion for finished flows. Raises [Invalid_argument] on
    unfinished flows (use {!goodput_bps_until}). *)

val goodput_bps_until : t -> Xmp_engine.Time.t -> float
(** Payload bits per second from start until [t] (or completion, if
    earlier). *)

val stop : t -> unit
(** Stops all subflows without completing the flow; before the start it
    cancels the flow, which then builds and sends nothing. *)

val open_receivers : t -> unit
(** Registers every built subflow's split receiver half
    ({!Xmp_transport.Tcp.open_receiver}): call it after the start, from
    the destination shard's domain or at an epoch barrier, before data
    can reach the destination, and before the receivers are reaped
    (see {!receivers}). No-op for non-split flows and for receivers
    already open. *)

val receivers : t -> Xmp_transport.Tcp.receiver list
(** The built subflows' split receiver halves, in subflow order; [[]]
    for a flow whose receivers share its sender's network. Reap each
    with {!Xmp_transport.Tcp.close_receiver} after completion, from the
    destination shard's domain or at an epoch barrier, so sharded
    open-loop runs do not accumulate dead endpoint registrations. The
    halves hold nothing of the flow: keeping them, and not the flow,
    lets the rest of a completed flow be collected. *)
