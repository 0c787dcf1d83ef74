(** TCP-like reliable transport over the simulated network.

    One {!t} owns both endpoints of a connection: the sender side lives at
    the source host (receives ACKs), the receiver side at the destination
    host (receives data, generates cumulative ACKs with delayed-ACK
    batching). Sequence numbers are in segments. The transmission rate is
    limited only by the congestion window (the paper configures send and
    receive buffers "sufficiently large"), so there is no flow control.

    Loss recovery: fast retransmit on the third duplicate ACK with
    NewReno-style partial-ACK retransmission, plus a retransmission timer
    with exponential backoff and a configurable floor (RTOmin = 200 ms by
    default, the value behind the paper's incast collapse results).

    ECN: data packets carry ECT when [ect] is set. The receiver echo mode
    matches the scheme under test:
    - [Counted (Some 3)] — the paper's XMP two-bit ECE/CWR encoding: each
      ACK returns up to 3 pending CE marks, leftovers carry over.
    - [Counted None] — exact echo, as DCTCP's one-bit state machine
      reconstructs.
    - [Classic] — RFC 3168: ECE latched until the sender's CWR arrives. *)

type echo_mode = Classic | Counted of int option

type config = {
  rto_min : Xmp_engine.Time.t;
  rto_max : Xmp_engine.Time.t;
  rto_granularity : Xmp_engine.Time.t;
      (** clock term [G] in [RTO = srtt + max (G, 4 * rttvar)]; keeps
          the timeout above srtt once rttvar decays on steady paths *)
  delack_segments : int;  (** ACK every n-th segment (paper: 2) *)
  delack_timeout : Xmp_engine.Time.t;
  dupack_threshold : int;
  ect : bool;
  echo : echo_mode;
  sack : bool;
      (** selective acknowledgements: the receiver advertises up to 3
          out-of-order blocks per ACK and the sender never retransmits
          segments the scoreboard covers (what a Linux-era stack does;
          without it, post-timeout go-back-N resends delivered data) *)
  reassembly_limit : int;
      (** cap on out-of-order segments the receiver buffers; arrivals
          beyond it are treated as lost (the sender retransmits), bounding
          receiver state under sustained loss *)
}

val default_config : config
(** RTOmin 200 ms, RTOmax 60 s, granularity 200 µs, delayed ACK every 2 segments with a 200 µs
    timer, 3 dupacks, ECT off, counted echo capped at 3, SACK off (matching
    the RTO-dominated loss recovery the paper's baselines exhibit; flip
    [sack] on to model a modern stack), reassembly limit 4096 segments. *)

val ecn_config : config
(** {!default_config} with [ect = true]. *)

type source = Infinite | Limited of int ref
(** Where segments come from: an unbounded bulk sender, or a shared counter
    of segments not yet handed to any subflow (MPTCP subflows share one). *)

type t

(** {1 Owners}

    The code a connection reports its progress to. An owner is a static
    table of hooks plus the value they act on (an MPTCP flow), so a
    connection holds one word for it and allocates no callback closure. *)

type 'a hooks = {
  acked : 'a -> t -> int -> unit;
      (** [acked owner conn n]: [n] segments newly acknowledged *)
  rtt_sample : 'a -> Xmp_engine.Time.t -> unit;  (** a fresh RTT sample *)
  complete : 'a -> t -> unit;
      (** a [Limited] source is exhausted and fully acknowledged *)
}

type owner = Owner : 'a hooks * 'a -> owner

val create :
  net:Xmp_net.Network.t ->
  ?rcv_net:Xmp_net.Network.t ->
  flow:int ->
  subflow:int ->
  src:int ->
  dst:int ->
  path:int ->
  cc:Cc.factory ->
  ?config:config ->
  ?source:source ->
  ?owner:owner ->
  ?on_segment_acked:(int -> unit) ->
  ?on_rtt_sample:(Xmp_engine.Time.t -> unit) ->
  ?on_complete:(unit -> unit) ->
  unit ->
  t
(** Registers the connection and starts sending at once; a deferred
    start is the caller's event (as {!Xmp_mptcp.Mptcp_flow} does it).
    One handler serves both hosts: ACKs go to the sender half, data to
    the receiver half. [source] defaults to [Infinite]. [on_complete]
    fires once, when a [Limited] source is exhausted and every segment
    is acknowledged; the connection then tears down. Progress goes
    either to [owner] or to the three callback arguments, which are a
    convenience for tests and single connections (passing both raises
    [Invalid_argument]). Raises [Invalid_argument] when [src = dst]:
    both halves would share one endpoint key.

    [rcv_net] places the receiver half on a different network (a sharded
    run's destination shard): the data endpoint registers there, its
    delayed-ACK timer runs on that network's simulator, and the two
    halves share no timers — only packets — so each shard's domain
    touches only its own half. In this split mode [create] registers
    only the sender endpoint; the receiver opens with {!open_receiver}
    and stays registered after teardown (late cross-shard arrivals
    dead-letter) until {!close_receiver} reaps it. *)

val open_receiver : t -> unit
(** Registers a split receiver half on [rcv_net]. Call it once, before
    the first data packet can reach the destination host, from the
    destination shard's domain or at a barrier where no shard is running
    (open-loop runs open a deferred flow's receivers at the first
    barrier after its start, which the shard lookahead makes early
    enough). No-op for non-split connections and on an open receiver. *)

val stop : t -> unit
(** Tears the connection down without completing it (cancels timers,
    unregisters endpoints). Idempotent. *)

val close_receiver : t -> unit
(** Reaps a split receiver half after the sender side tore down:
    unregisters the data endpoint from [rcv_net] and cancels its
    delayed-ACK timer. Only meaningful in split mode — it must be called
    from the destination shard's domain, or at a barrier where no shard
    is running (the open-loop driver reaps completed flows there, so a
    million-flow run does not leak endpoint registrations). No-op for
    non-split connections and on repeat calls. *)

(** {1 Introspection} *)

val flow : t -> int

val subflow : t -> int

val path : t -> int

val cwnd : t -> float

val cc_name : t -> string

val srtt : t -> Xmp_engine.Time.t

val snd_una : t -> int

val snd_nxt : t -> int
(** Next segment to (re)transmit; regresses to {!snd_una} after a
    retransmission timeout (go-back-N). *)

val snd_max : t -> int
(** High-water mark: segments taken from the source so far. *)

val segments_acked : t -> int

val segments_sent : t -> int

val retransmits : t -> int

val timeouts : t -> int

val fast_retransmits : t -> int

val is_complete : t -> bool

val started_at : t -> Xmp_engine.Time.t
