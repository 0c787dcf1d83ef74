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
    defaults to {!silent}. A future [start_at] defers every subflow's
    first transmission to that instant (endpoints register immediately);
    {!started_at} then reports [start_at] and goodput is measured from
    there. *)

val add_subflow : t -> path:int -> Xmp_transport.Tcp.t
(** Establishes an additional subflow on [path] (Figure 6's staggered
    subflow arrivals). It joins the flow's coupling group and shares the
    remaining data. Raises [Invalid_argument] on a completed flow. *)

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
(** Stops all subflows without completing the flow. *)

val close_receivers : t -> unit
(** Reaps every subflow's split receiver half
    ({!Xmp_transport.Tcp.close_receiver}): call after completion, from
    the destination shard's domain or at an epoch barrier, so sharded
    open-loop runs do not accumulate dead endpoint registrations. No-op
    for non-split flows. *)
