(** Pod-sharded parallel simulation: several {!Xmp_engine.Sim}/{!Network}
    pairs advancing in lockstep epochs, coupled by portal links.

    Each shard is an ordinary single-domain simulation. A {!portal} is a
    directed cross-shard link: its serializer and egress queue run in the
    source shard at the given rate, and its propagation delay is applied
    across the epoch barrier. When a packet finishes serializing, the
    words it uses ({!Packet.store}: 4 for data and plain ACKs, up to 7
    with SACK blocks) are appended to the source shard's outbox together
    with the portal index and the arrival time, and the packet is
    released into the sending domain's pool. At the barrier the words
    move into the portal's inbox, an int ring sized in words where a
    record may wrap past the end, and one arrival event per mail, on
    the portal's private FIFO lane in the destination sim
    ({!Xmp_engine.Sim.lane_at}), rebuilds the packet at the ring head
    from the receiving domain's pool with {!Packet.load}. No step
    allocates per mail.

    {2 Epoch-barrier semantics}

    The epoch length is the minimum portal delay Δ (the conservative
    lookahead): epoch [e] simulates [[eΔ, (e+1)Δ)] in every shard, so any
    mail emitted during epoch [e] carries an arrival timestamp of at
    least [(e+1)Δ] and is injected at the barrier before the epoch that
    contains it — no shard ever receives an event in its past.

    {2 Determinism}

    Shards are pinned to domains round-robin and each shard's event loop
    is sequential. The barrier injects mail in one pass: shards in index
    order, each outbox in emission order. A destination sim orders its
    events by (time, scheduling sequence), and the mail of one barrier
    takes one contiguous block of sequence numbers, so mail arriving at
    the same instant is delivered in (source shard, emission) order
    whatever the domain count. A portal's delay is constant, so its
    inbox drains in the order it was filled. A run with [domains:1] and
    a run with [domains:N] therefore produce byte-identical results.
    Nothing a shard computes may depend on which domain hosts it
    (per-domain packet pools satisfy this: pool identity never changes
    packet contents).

    {2 Domain safety}

    Only the source shard's domain writes its outbox, and only during an
    epoch. Only the orchestrating domain reads outboxes and writes
    inboxes, and only at the barrier, while the workers are parked. Only
    the destination shard's domain pops an inbox, during an epoch. The
    crew mutex hand-offs at the barrier are the happens-before edges
    between these phases. *)

type t

val create : ?config:Xmp_engine.Sim.config -> shards:int -> unit -> t
(** Each shard gets its own simulator seeded [config.seed + index] and
    its own network. *)

val n_shards : t -> int

val net : t -> int -> Network.t

val sim : t -> int -> Xmp_engine.Sim.t

val portal :
  t ->
  ?tag:string ->
  src:int * Node.t ->
  dst:int * Node.t ->
  rate:Units.rate ->
  delay:Xmp_engine.Time.t ->
  disc:(unit -> Queue_disc.t) ->
  unit ->
  Link.t
(** [portal t ~src:(i, a) ~dst:(j, b) ~rate ~delay ~disc ()] wires a
    directed cross-shard link from node [a] of shard [i] to node [b] of
    shard [j], taking the next port number on [a] exactly as
    {!Network.connect} would. [delay] must be positive: it is the
    lookahead that bounds the epoch length. Raises [Invalid_argument] on
    a same-shard portal or a non-positive delay. *)

val connect :
  t ->
  ?tag:string ->
  rate:Units.rate ->
  delay:Xmp_engine.Time.t ->
  disc:(unit -> Queue_disc.t) ->
  int * Node.t ->
  int * Node.t ->
  Link.t * Link.t
(** [connect t ~rate ~delay ~disc (i, a) (j, b)] is how topologies wire
    a cable: {!Network.connect} in shard [i]'s network when [i = j],
    otherwise a {!portal} pair. Either way the forward direction is
    created first, so port numbers do not depend on the placement.
    Returns [(a_to_b, b_to_a)]. *)

val epoch_delta : t -> Xmp_engine.Time.t
(** The epoch length Δ (minimum portal delay); [Time.infinity] while no
    portal exists. *)

val run :
  ?domains:int ->
  ?until:Xmp_engine.Time.t ->
  ?on_epoch:(target:Xmp_engine.Time.t -> Xmp_engine.Time.t) ->
  t ->
  unit
(** Advances every shard to [until] in Δ-sized epochs, injecting portal
    mail at each barrier. [domains:1] (the default) runs the epochs on
    the calling domain; [domains:n] spawns [n - 1] worker domains for
    the duration of the call and shards are pinned round-robin. The
    domain count never changes results (see the determinism notes
    above). Idle stretches where no shard has events and no mail is in
    flight are skipped in O(1).

    [on_epoch] is the barrier hook for open-loop traffic generation: it
    runs on the orchestrating domain at the start of every epoch, while
    all workers are parked, so it may safely mutate any shard — in
    particular create cross-shard flows (which register endpoints on two
    shards) due inside the epoch's window. The callback receives the
    epoch's end time [target], must schedule everything it wants at or
    before [target], and returns the time of its earliest remaining
    action strictly beyond [target] ([Time.infinity] when exhausted);
    that return feeds the idle fast-forward so quiet stretches are still
    skipped. Without portals the hook fires exactly once with
    [target = until]. *)

val events_executed : t -> int
(** Sum of {!Xmp_engine.Sim.events_executed} over the shards. *)

val mail_injected : t -> int
(** Portal packets carried across barriers so far. *)

val close : t -> unit
(** Releases a finished run: every shard's sim drops its pending events
    ({!Xmp_engine.Sim.close}), every network its endpoints and node
    index ({!Network.close}), outboxes and inboxes their mail, and
    portals their destination nodes. A table in the major heap keeps the
    cells a young value was written into remembered until the next
    minor collection, which promotes whatever they still point to, so
    each is overwritten in place rather than dropped. Links, their
    queues' counters, {!events_executed} and {!mail_injected} stay
    readable; {!run} and scheduling on any shard's sim raise
    [Invalid_argument]. Closing twice is a no-op. *)
