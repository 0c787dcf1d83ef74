(** Pooled, packed packets.

    Sequence numbers are in whole segments (one data packet carries one
    segment), matching the paper's packet-granularity window arithmetic.
    Wire sizes follow the paper's BDP computations: 1500-byte data packets
    (1460 B payload) and 60-byte ACKs.

    The representation is allocation-free on the hot path: header fields
    are packed into two immediate words (range-checked at construction),
    flags and the up-to-3 SACK blocks into fixed slots, and records are
    recycled through a domain-local free-list pool. {!data}, {!ack} and
    {!load} acquire from the pool; {!release} returns a record to it.

    Ownership rule: exactly one component owns a packet at any instant,
    and the owner either passes it on (link -> queue -> link -> dispatch)
    or releases it. The sinks that release are: endpoint dispatch after
    the handler returns ({!Network.dispatch}), queue-disc drops and
    clears, a link's ingress drop filter, and in-flight delivery on a
    downed link. Handlers must therefore copy anything they need out of
    the packet before returning — retaining a packet reads as garbage
    once the pool reuses it. *)

type kind = Data | Ack

type t

val data_wire_bytes : int
(** 1500 *)

val payload_bytes : int
(** 1460 *)

val ack_wire_bytes : int
(** 60 *)

(** {1 Constructors (pool acquires)}

    Construction range-checks every header field: flows take 30 bits,
    subflows 12, src/dst host ids 20, path selectors 10, sequence numbers
    31 and the echoed CE count 16, so both packed words stay within
    OCaml's 63-bit immediate ints. *)

val data :
  flow:int ->
  subflow:int ->
  src:int ->
  dst:int ->
  path:int ->
  seq:int ->
  ect:bool ->
  cwr:bool ->
  ts:Xmp_engine.Time.t ->
  t

val ack :
  ?sack:(int * int) list ->
  flow:int ->
  subflow:int ->
  src:int ->
  dst:int ->
  path:int ->
  seq:int ->
  ece_count:int ->
  ts:Xmp_engine.Time.t ->
  unit ->
  t
(** ACKs are not ECN-capable (per RFC 3168, ACKs are sent non-ECT).
    [sack] is a convenience for tests; the transport's hot path fills
    blocks with {!add_sack_block} instead. *)

val release : t -> unit
(** Returns the record to the current domain's pool. Raises
    [Invalid_argument] on a double release. *)

val dummy : t
(** A shared placeholder for preallocated slots (queue rings, wire
    registers). It never circulates: releasing it raises, and its fields
    read as zeros. *)

val grow_ring : t array -> head:int -> len:int -> int -> t array
(** [grow_ring ring ~head ~len cap] is a fresh [cap]-slot ring ([cap >=
    len], and at most [2 * len] when over 256) holding, from slot 0 and
    in FIFO order, the [len] packets that the circular [ring] holds from
    slot [head] on. The queue and wire rings grow through it, so they
    start empty and allocate for what they hold. *)

val pool_created : unit -> int
(** Records ever created by the current domain's pool (grows only when
    the pool runs dry). *)

val pool_free : unit -> int
(** Records currently available for reuse in the current domain's pool. *)

(** {1 Accessors} *)

val flow : t -> int
val subflow : t -> int

val dst : t -> int

val path : t -> int
(** path selector: models the destination address choice that steers a
    subflow onto one of the equal-cost paths *)

val kind : t -> kind
val is_ack : t -> bool

val size : t -> int
(** bytes on the wire, derived from the kind *)

val seq : t -> int
(** data: segment index; ack: cumulative acknowledgement (the next
    expected segment) *)

val ect : t -> bool
(** ECN-capable transport codepoint *)

val ce : t -> bool
(** Congestion Experienced, set by switches via {!set_ce} *)

val set_ce : t -> unit

val cwr : t -> bool
(** data only: Congestion Window Reduced (classic ECN) *)

val ece_count : t -> int
(** acks only: number of CE marks echoed by this ack. The paper's 2-bit
    ECE/CWR encoding caps this at 3 for XMP. *)

val ts : t -> Xmp_engine.Time.t
(** data: send timestamp; ack: echoed timestamp for RTT sampling *)

val endpoint_key : t -> int
(** The packet's (dst, flow, subflow) triple packed exactly as
    {!Network.Endpoint_key.pack} lays it out — endpoint dispatch reads
    the key straight out of the header word. *)

(** {1 SACK blocks}

    acks only: selective acknowledgement blocks [start, stop) of segments
    held above the cumulative ack, at most 3 (the option space of a real
    SACK header). *)

val sack_count : t -> int

val sack_start : t -> int -> int
(** [sack_start p i] for [i < sack_count p]; block bounds are 31-bit. *)

val sack_stop : t -> int -> int

val add_sack_block : t -> start:int -> stop:int -> unit
(** Appends a block; raises [Invalid_argument] past the third block or
    on bounds outside 31 bits. *)

val sack : t -> (int * int) list
(** The blocks as a list (allocates — tests and pretty-printers only). *)

(** {1 Packet words}

    A shard boundary carries a packet as plain ints: {!store} copies it
    into a mail buffer, the original is released into the sending
    domain's pool, and {!load} rebuilds it from the receiving domain's
    pool. A stored record is the two header words, the flags word and
    the timestamp, then one word per SACK block: 4 words for a data
    packet or a plain ACK, 5 to 7 for an ACK with blocks. Its width is
    read back from its own flags word ({!width}), so records of mixed
    widths follow one another with no length prefix. *)

val words : int
(** 7: the most ints one packet occupies. *)

val store : t -> int array -> int -> int
(** [store p a off] writes [p] into [a.(off)] .. [a.(off + w - 1)] and
    returns its width [w = 4 + sack_count p]. It does not release [p]. *)

val width : int array -> int -> int
(** [width a off] is the width {!store} returned for the record at
    [off]. *)

val load : int array -> int -> t
(** [load a off] acquires a record from the current domain's pool and
    fills it from the record {!store} wrote at [off]. It allocates
    nothing beyond the pool. The record comes back
    live (its free bit cleared), whatever the stored flags say, and a
    slot past its [sack_count] keeps whatever the reused record held. *)

val pp : Format.formatter -> t -> unit
