(** Unidirectional link: a serializing transmitter, a queue discipline, and
    a fixed propagation delay.

    A packet handed to {!send} is transmitted immediately if the link is
    idle, otherwise it passes through the queue discipline (where it may be
    CE-marked or dropped). Transmission takes [size * 8 / rate]; the packet
    then arrives at the receiver after the propagation delay. Multiple
    packets can be in flight on the wire simultaneously (transmission
    pipelining), as on a real link. Both per-packet events go on the
    sim's shared FIFO lanes, one per distinct delay
    ({!Xmp_engine.Sim.lane}).

    Memory follows occupancy: the in-flight (wire) ring starts empty and
    doubles as packets go on the wire, so a link holds slots for the most
    packets it has had in flight at once, not for its bandwidth-delay
    product; its queue grows the same way ({!Queue_disc.create}).

    A link with zero delay (a {!Shard} portal's egress) calls its
    receiver inside the serialization-complete event: one event per
    packet instead of two. The hand-over happens within that event, so
    taking the link down later at the same instant no longer drops the
    packet. *)

type t

val create :
  sim:Xmp_engine.Sim.t ->
  id:int ->
  name:string ->
  rate:Units.rate ->
  delay:Xmp_engine.Time.t ->
  disc:Queue_disc.t ->
  t
(** The receiver callback must be attached with {!set_receiver} before the
    first {!send}. *)

val set_receiver : t -> (Packet.t -> unit) -> unit

val set_drop_filter : t -> (Packet.t -> bool) option -> unit
(** Ingress loss hook: when set, every packet offered to {!send} on an up
    link is first shown to the filter, and discarded before reaching the
    queue if it returns [true]. The filter owns accounting/telemetry for
    what it kills (the fault injector counts drops and emits
    [Injected_drop] events). [None] (the default) disables the hook at the
    cost of one branch. *)

val id : t -> int

val name : t -> string

val rate : t -> Units.rate

val delay : t -> Xmp_engine.Time.t

val disc : t -> Queue_disc.t

val send : t -> Packet.t -> unit
(** Queue the packet for transmission. Dropped silently (with accounting)
    if the link is down or the queue rejects it. *)

val set_up : t -> bool -> unit
(** Taking a link down clears its queue and drops everything sent to it;
    bringing it back up resumes normal service. *)

val is_up : t -> bool

val bytes_sent : t -> int
(** Total wire bytes fully serialized so far (basis for utilization). *)

val packets_sent : t -> int

val utilization : t -> duration:Xmp_engine.Time.t -> float
(** [bytes_sent * 8 / (rate * duration)]. *)
