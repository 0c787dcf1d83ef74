(** Queue disciplines for switch egress ports.

    Two policies:

    - [Droptail]: FIFO, drop on overflow, no marking. What the paper's LIA
      and TCP baselines run against.
    - [Threshold_mark k]: the paper's packet-marking rule (§2.1) — mark the
      arriving ECT packet with CE when the instantaneous queue length
      exceeds [k] packets, drop on overflow. Equivalent to RED with
      [Wq = 1] and both thresholds at [k], the configuration trick of §3.

    Non-ECT packets are never marked; they are only dropped on overflow.
    This is what lets ECN and non-ECN flows coexist in Table 2. *)

type policy = Droptail | Threshold_mark of int

type t

val create : policy:policy -> capacity_pkts:int -> t
(** A queue of at most [capacity_pkts] packets. Memory follows occupancy:
    the ring starts empty and doubles as the backlog grows, up to
    [capacity_pkts] slots, so a deep bound (a WAN trunk's BDP-sized
    buffer) costs nothing until packets queue. Raises [Invalid_argument]
    if [capacity_pkts <= 0]. *)

val policy : t -> policy

val capacity : t -> int

val length : t -> int
(** Packets currently waiting (excludes any packet in transmission). *)

val enqueue : t -> Packet.t -> bool
(** [enqueue t p] applies the marking policy to [p] and appends it; returns
    [false] when the packet was dropped (queue full, or the queue is
    blacked out). *)

val take : t -> Packet.t
(** Removes and returns the head packet, allocating nothing. The queue
    must hold a packet (test {!length} first); taking from an empty queue
    raises [Invalid_argument]. *)

val dequeue : t -> Packet.t option
(** {!take} as an option: [None] when the queue is empty. *)

val clear : t -> int
(** Empties the queue (used when a link goes down); returns the number of
    packets discarded. *)

val enqueued : t -> int
(** Cumulative packets accepted. *)

val dropped : t -> int
(** Cumulative packets dropped. *)

val marked : t -> int
(** Cumulative packets CE-marked. *)

val max_length_seen : t -> int

val set_blackout : t -> bool -> unit
(** While blacked out the queue drops every arriving packet with normal
    drop accounting (counters, Drop events); packets already
    queued still drain. The fault injector's [Blackout] spec toggles
    this. *)

val set_telemetry :
  t -> sink:Xmp_telemetry.Sink.t -> now:(unit -> int) -> queue:string -> unit
(** Attaches the owning simulation's telemetry sink (normally done by
    {!Link.create}): resolves per-queue counters / a depth histogram under
    labels [queue=<queue>] and emits enqueue / dequeue / CE-mark / drop
    events stamped with [now ()] (simulated nanoseconds). With a disabled
    sink this resolves nothing and every per-packet site stays a single
    branch. *)
