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

val locality_name : locality -> string

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

type t

val create :
  cluster:Shard.t ->
  k:int ->
  ?rate:Units.rate ->
  disc:(unit -> Queue_disc.t) ->
  unit ->
  t
(** Builds the tree on a fresh cluster: all on shard 0 of a one-shard
    cluster, or one pod per shard on a [k]-shard cluster. [k] must be
    even and ≥ 2; any other shard count raises [Invalid_argument]. *)

val k : t -> int

val view : t -> Topology.t

val n_hosts : t -> int

val host_id : t -> int -> int
(** Node id of host index [i] (0 ≤ i < n_hosts). *)

val host_index : t -> int -> int
(** Inverse of {!host_id}. *)

val locality : t -> src:int -> dst:int -> locality
(** Locality class of a host-index pair. *)

val n_paths : t -> src:int -> dst:int -> int
(** Number of distinct path selectors between two hosts: 1 within a rack,
    [k/2] within a pod, [(k/2)^2] across pods. *)

val max_rtt_no_queue : t -> Xmp_engine.Time.t
(** Zero-load RTT of the longest (inter-pod) path. *)

val rack_uplink_name : t -> pod:int -> edge:int -> agg:int -> string
(** ["e<pod>.<edge>->a<pod>.<agg>"] — the edge-to-aggregation uplink's
    link name, for building {!Xmp_engine.Fault_spec} schedules that fail
    a rack uplink mid-run. Raises on out-of-range coordinates. *)

val rack_downlink_name : t -> pod:int -> edge:int -> agg:int -> string
(** The reverse (aggregation-to-edge) direction; fail both names to cut
    the cable rather than one direction. *)

val host_uplink_name : t -> int -> string
(** ["h<pod>.<edge>.<slot>-><edge switch>"] for host index [i]. *)

val rack_uplink : t -> pod:int -> edge:int -> agg:int -> Link.t
(** The live link for {!rack_uplink_name}; raises [Invalid_argument] if
    absent. *)

val rack_downlink : t -> pod:int -> edge:int -> agg:int -> Link.t

val layers : string list
(** [\["core"; "aggregation"; "rack"\]] — tags usable with
    {!Network.links_tagged}. *)
