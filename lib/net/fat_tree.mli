(** k-ary Fat-Tree topology (Al-Fares et al., SIGCOMM 2008) with the
    deterministic per-destination-address routing the paper uses (§5.2.1:
    Two-Level Routing Lookup; multiple addresses per host so that MPTCP
    subflows take different paths).

    For even [k]: [k] pods, each with [k/2] edge and [k/2] aggregation
    switches; [(k/2)^2] core switches; [k^3/4] hosts. A packet's [path]
    field plays the role of the destination address choice: inter-pod
    traffic with selector [p] ascends via aggregation switch [p / (k/2)]
    and core offset [p mod (k/2)]; intra-pod inter-rack traffic uses
    aggregation switch [p mod (k/2)]. ACKs carry the same selector, so the
    reverse path is the mirror of the forward path, as with symmetric
    two-level lookup tables.

    1 Gbps links by default; one-way delays 20 µs (rack), 30 µs
    (aggregation), 40 µs (core). Link layer tags are ["rack"],
    ["aggregation"], ["core"]. *)

type locality = Topology.locality =
  | Inner_rack
  | Inter_rack
  | Inter_pod
  | Inter_dc

val shape : k:int -> Topology.shape
(** The tree's geometry — host and switch counts, locality classes, path
    counts and zero-load delays — independent of placement. *)

val build :
  Shard.t ->
  shard_of_pod:(int -> int) ->
  k:int ->
  prefix:string ->
  host_base:int ->
  switch_base:int ->
  n_exits:int ->
  rate:Units.rate ->
  disc:(unit -> Queue_disc.t) ->
  (int * Node.t) array
(** The one description of the tree. Host index [i] gets node id
    [host_base + i]; the edge, aggregation and core switches follow from
    [switch_base]; names are [prefix] followed by ["h<pod>.<edge>.<slot>"],
    ["e<pod>.<e>"], ["a<pod>.<a>"] or ["c<g>.<c>"]. Pod [p]'s nodes go on
    shard [shard_of_pod p]; core (g, c) goes with pod [(g·k/2 + c) mod
    k]. Links are made with {!Shard.connect} in layer order (rack,
    aggregation, core). Destinations outside the tree's host range leave
    through core port [k + j], [j] = [path / (k/2)² mod n_exits]; the
    caller wires those ports. Returns the [(shard, core)] pairs in
    selector order. *)

val create :
  cluster:Shard.t ->
  k:int ->
  ?rate:Units.rate ->
  disc:(unit -> Queue_disc.t) ->
  unit ->
  Topology.t
(** Builds the tree on a fresh cluster: all on shard 0 of a one-shard
    cluster, or one pod per shard on a [k]-shard cluster. [k] must be
    even and ≥ 2; any other shard count raises [Invalid_argument]. Host
    index [i] is node id [i]; links are named ["<from>-><to>"] (e.g. the
    rack uplink ["e0.0->a0.0"]), the names {!Network.find_link} and
    {!Xmp_engine.Fault_spec} schedules address. *)
