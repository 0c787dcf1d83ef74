(** Inter-DC WAN bridge: two data centers (fat tree or leaf-spine)
    joined by configurable high-BDP border trunks.

    Each trunk gets a border router per DC hanging off the exit layer
    (every core switch, or every spine), so cross-DC traffic keeps the
    full intra-DC path diversity up to the border and the trunk choice
    is a separate selector stratum: a cross-DC packet's [path] decomposes
    as [path mod up_div] (intra-DC ascent, [up_div] = (k/2)² for a fat
    tree, [spines] for a leaf-spine) and [path / up_div mod n_trunks]
    (trunk). ACKs reuse the selector, so the reverse path mirrors the
    forward one through its own DC's geometry.

    Host ids are globally unique across both DCs (DC 0's hosts first,
    switches after all hosts), so locality and routing classify a
    destination with one range check, and {!Topology.Inter_dc} extends
    the locality classes.

    Each DC is the {!Fat_tree} or {!Leaf_spine} description; placement
    comes from the cluster {!create} is given. On one shard everything
    is a local link. On two shards each DC is a shard and each trunk
    direction a portal, so the trunk delay (10–100 ms) is the epoch
    lookahead and [domains:1 ≡ domains:N] byte equality holds as for the
    pod-sharded fat tree, at a far coarser barrier cadence. *)

type dc_spec =
  | Fat_tree_dc of { k : int }
  | Leaf_spine_dc of { leaves : int; spines : int; hosts_per_leaf : int }

type trunk = {
  trunk_rate : Units.rate;
  trunk_delay : Xmp_engine.Time.t;
  trunk_queue_pkts : int;
  trunk_marking_threshold : int option;
}
(** One border link. [trunk_marking_threshold = None] models a
    deep-buffer droptail WAN router; [Some k] a shallow ECN-marking
    border queue — the regime where Eq. 1 ([K ≥ BDP/(β−1)]) sizes [K]
    against a BDP three orders of magnitude beyond the intra-DC one. *)

val trunk :
  ?rate:Units.rate ->
  ?delay:Xmp_engine.Time.t ->
  ?queue_pkts:int ->
  ?marking_threshold:int ->
  unit ->
  trunk
(** Defaults: 10 Gbps, 40 ms one-way, 2000-packet droptail (no
    marking). [delay] must be positive — it is the shard lookahead. *)

val create :
  cluster:Shard.t ->
  left:dc_spec ->
  right:dc_spec ->
  trunks:trunk list ->
  disc:(unit -> Queue_disc.t) ->
  unit ->
  Topology.t
(** Builds on a fresh cluster: everything on shard 0 of a one-shard
    cluster, or [left] on shard 0 and [right] on shard 1 of a two-shard
    one; any other shard count raises [Invalid_argument]. Intra-DC
    links run at 1 Gbps with [disc] queues; their delays are the {!Fat_tree} / {!Leaf_spine} ones (rack 20 µs,
    aggregation 30 µs, core 40 µs, spine 30 µs); border attach links use
    the exit-layer delay and the trunk's rate. At least one trunk is
    required.

    In the returned handle, [dc_ranges] holds the two DCs' host ranges.
    A pair across the cut is [Inter_dc], with [up_div(src DC) ×
    n_trunks] path selectors and a zero-load RTT over the fastest trunk;
    a pair within one DC keeps that DC's own class, path count and RTT.
    Trunk [j]'s two directions are named ["d0.bdr<j>->d1.bdr<j>"] and
    ["d1.bdr<j>->d0.bdr<j>"] and carry the ["wan"] tag. *)

val dc_n_hosts : dc_spec -> int
(** Host count of one DC spec ([k³/4] for a fat tree,
    [leaves × hosts_per_leaf] for a leaf-spine). *)

val max_rtt_no_queue_of :
  left:dc_spec ->
  right:dc_spec ->
  trunks:trunk list ->
  Xmp_engine.Time.t
(** Zero-load RTT of the slowest cross-DC path (slowest trunk), from the
    specs alone — what RTO floors and horizons are sized against, before
    anything is built. *)
