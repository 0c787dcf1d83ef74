(** Two-tier leaf–spine (Clos) topology — the VL2-style multi-rooted tree
    of the paper's related work (§6 cites VL2; §5's Fat-Tree is the
    three-tier variant). Useful for checking that XMP's behaviour is not
    an artifact of the Fat-Tree's structure.

    [leaves] leaf switches with [hosts_per_leaf] hosts each, every leaf
    connected to every one of [spines] spine switches. A packet's [path]
    selector picks the spine ([path mod spines]), so inter-leaf host
    pairs have [spines] equal-cost paths; ACKs retrace the mirror path.
    One-way delays are 20 µs (host links) and 30 µs (spine links). Link
    layer tags are ["leaf"] (host–leaf) and ["spine"] (leaf–spine). *)

val shape : leaves:int -> spines:int -> hosts_per_leaf:int -> Topology.shape
(** The fabric's geometry, independent of placement; a pair on one leaf
    is [Inner_rack], any other pair [Inter_rack]. *)

val build :
  Shard.t ->
  shard:int ->
  leaves:int ->
  spines:int ->
  hosts_per_leaf:int ->
  prefix:string ->
  host_base:int ->
  switch_base:int ->
  n_exits:int ->
  host_rate:Units.rate ->
  spine_rate:Units.rate ->
  disc:(unit -> Queue_disc.t) ->
  (int * Node.t) array
(** The one description of the fabric, all on shard [shard]. Host index
    [i] gets node id [host_base + i]; leaves then spines follow from
    [switch_base]; names are [prefix] followed by ["h<leaf>.<slot>"],
    ["leaf<l>"] or ["spine<s>"]. Destinations outside the fabric's host
    range leave through spine port [leaves + j], [j] = [path / spines mod
    n_exits]; the caller wires those ports. Returns the [(shard, spine)]
    pairs in selector order. *)

val create :
  cluster:Shard.t ->
  leaves:int ->
  spines:int ->
  hosts_per_leaf:int ->
  disc:(unit -> Queue_disc.t) ->
  unit ->
  Topology.t
(** Builds on shard 0 of a one-shard cluster (any other shard count
    raises [Invalid_argument]), with 1 Gbps host links and 10 Gbps spine
    links (VL2 used 10 G up / 1 G down). Host index [i] is node id [i];
    the uplink from leaf [l] to spine [s] is named ["leaf<l>->spine<s>"]. *)
