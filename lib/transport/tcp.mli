(** TCP-like reliable transport over the simulated network.

    A connection has two halves. The sender half ({!t}) lives at the
    source host and receives ACKs; the receiver half ({!receiver}) lives
    at the destination host, receives data and generates cumulative ACKs
    with delayed-ACK batching. The sender points to its receiver and
    reads the connection's addressing there (its {!header}, subflow and
    path, none of which change); nothing in the receiver leads back to
    the sender, its controller or its owner, so once a connection is
    done a receiver that stays registered keeps only itself and its
    header alive. Each mutable field belongs to one half, so in split
    mode (see {!create}) each shard's domain touches only its own.
    Sequence numbers are in segments. The transmission rate is limited
    only by the congestion window (the paper configures send and
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
(** Where a connection built without an {!owner} takes its segments
    from: an unbounded bulk sender, or a counter of segments not yet
    handed out (connections may share one), which must not be
    negative. *)

type t
(** The sender half, and the handle of the whole connection. *)

type receiver
(** The receiver half. *)

type instruments
(** The sender's telemetry instruments. *)

type header = private {
  net : Xmp_net.Network.t;  (** the sender's network *)
  rcv_net : Xmp_net.Network.t;
      (** the receiver's network: [net] itself unless split *)
  config : config;
  flow : int;
  src : int;
  dst : int;
  instruments : instruments option;
      (** resolved once from [net]'s sink; [None] when it is disabled *)
}
(** What every connection of one flow shares and never writes. Both
    halves hold it, so it holds nothing of a sender: an MPTCP flow's
    subflows share one, and so the flow's addressing costs them no
    words. *)

val header :
  net:Xmp_net.Network.t ->
  ?rcv_net:Xmp_net.Network.t ->
  flow:int ->
  src:int ->
  dst:int ->
  ?config:config ->
  unit ->
  header
(** [rcv_net] defaults to [net] and [config] to {!default_config}.
    Raises [Invalid_argument] when [src = dst]: both halves would share
    one endpoint key. *)

(** {1 Owners}

    The code a connection takes its segments from and reports its
    progress to. An owner is a static table of hooks plus the value they
    act on (an MPTCP flow), so a connection holds one word for it and
    allocates no callback closure. *)

type 'a hooks = {
  remaining : 'a -> int;
      (** the owner's count of segments not yet handed out to any of its
          connections, or -1 for no limit. A connection takes a segment
          while the count is not 0, and once it is 0 completes when
          everything it took is acknowledged. *)
  set_remaining : 'a -> int -> unit;
      (** stores the count after a connection took a segment; called
          only while it is positive *)
  acked : 'a -> t -> int -> unit;
      (** [acked owner conn n]: [n] segments newly acknowledged *)
  rtt_sample : 'a -> Xmp_engine.Time.t -> unit;  (** a fresh RTT sample *)
  complete : 'a -> t -> unit;
      (** the source is drained and the connection's segments are all
          acknowledged *)
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
  ?on_segment_acked:(int -> unit) ->
  ?on_rtt_sample:(Xmp_engine.Time.t -> unit) ->
  ?on_complete:(unit -> unit) ->
  unit ->
  t
(** Registers the connection and starts sending at once; a deferred
    start is the caller's event (as {!Xmp_mptcp.Mptcp_flow} does it).
    Each half registers its own handler: the sender's at [src] for ACKs,
    the receiver's at [dst] for data. Segments come from [source]
    (default [Infinite]) and progress goes to the three callbacks, a
    convenience for tests and single connections; {!connect} takes an
    {!owner} instead. [on_complete] fires once, when a [Limited] source
    is exhausted and every segment is acknowledged; the connection then
    tears down. The connection gets a {!header} of its own; raises
    [Invalid_argument] when [src = dst] or a [Limited] source is
    negative.

    [rcv_net] places the receiver half on a different network (a sharded
    run's destination shard): the data endpoint registers there, its
    delayed-ACK timer runs on that network's simulator, and the two
    halves share no timers — only packets — so each shard's domain
    touches only its own half. In this split mode [create] registers
    only the sender endpoint; the receiver opens with {!open_receiver}
    and stays registered after the sender's teardown, re-ACKing late
    arrivals, until {!close_receiver} reaps it; arrivals after that
    dead-letter. *)

val connect :
  header -> subflow:int -> path:int -> cc:Cc.factory -> owner:owner -> t
(** {!create} under a header of the caller's, which several connections
    may share (an MPTCP flow's subflows); [owner] is where segments come
    from and progress goes. It registers the connection but sends
    nothing until {!start}, so the owner can file the connection before
    any hook runs. *)

val start : t -> unit
(** Sends what the window allows. A connection whose owner has no
    segment left completes here, so its owner's [complete] hook can run
    inside [start]. Call it once, after {!connect}. *)

val owner : t -> owner

val receiver : t -> receiver
(** The connection's receiver half. Keep it, not the connection, to
    reap a split receiver after the sender completes. *)

val open_receiver : receiver -> unit
(** Registers a split receiver half on [rcv_net]. Call it once, before
    the first data packet can reach the destination host, from the
    destination shard's domain or at a barrier where no shard is running
    (open-loop runs open a deferred flow's receivers at the first
    barrier after its start, which the shard lookahead makes early
    enough). No-op for non-split connections and on a receiver already
    opened. *)

val stop : t -> unit
(** Tears the connection down without completing it (cancels timers,
    unregisters endpoints). Idempotent. *)

val close_receiver : receiver -> unit
(** Reaps a split receiver half after the sender side tore down:
    unregisters the data endpoint from [rcv_net] and cancels its
    delayed-ACK timer. Only meaningful in split mode — it must be called
    from the destination shard's domain, or at a barrier where no shard
    is running (the open-loop driver reaps completed flows there, so a
    million-flow run does not leak endpoint registrations). No-op for
    non-split connections, on a receiver never opened and on repeat
    calls. *)

(** {1 Introspection} *)

val subflow : t -> int

val cwnd : t -> float

val cc_name : t -> string

val srtt : t -> Xmp_engine.Time.t

val snd_nxt : t -> int
(** Next segment to (re)transmit; regresses to [snd_una] after a
    retransmission timeout (go-back-N). *)

val snd_max : t -> int
(** High-water mark: segments taken from the source so far, that is
    segments sent once, retransmissions aside. *)

val segments_acked : t -> int
(** [snd_una]: segments cumulatively acknowledged. *)

val retransmits : t -> int

val timeouts : t -> int

val fast_retransmits : t -> int

val is_complete : t -> bool
