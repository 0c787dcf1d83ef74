(** The handle of a built topology, whatever its placement: what
    {!Fat_tree.create}, {!Leaf_spine.create} and {!Wan.create} return,
    and all that traffic generators see of it.

    Every topology is a description built on a {!Shard} cluster: each
    node is placed on one shard, and a link whose two ends sit on
    different shards becomes a pair of portals ({!Shard.connect}). A flat
    network is the one-shard cluster. Host ids are the host indices
    [0 .. n_hosts), the same in every shard's network. *)

type locality = Inner_rack | Inter_rack | Inter_pod | Inter_dc
(** [Inter_dc] never arises within one datacenter; {!Wan} produces it
    for host pairs on opposite sides of the border trunks. *)

val locality_name : locality -> string

val locality_index : locality -> int
(** The class's position in declaration order, [0 .. 3]. *)

val layers : string list
(** Every link tag the builders use, in display order: [\["wan"; "border";
    "core"; "aggregation"; "rack"; "leaf"; "spine"\]]. A network carries
    a subset; consumers skip tags with no links. *)

type shape = {
  hosts : int;
  switches : int;
  classify : int -> int -> locality;
      (** locality of two host indices of this datacenter; never [Inter_dc] *)
  paths : locality -> int;
      (** distinct path selectors per class; [Inter_dc] is the number the
          ascent toward the exit layer spreads over *)
  one_way : locality -> Xmp_engine.Time.t;
      (** zero-load one-way propagation per class; [Inter_dc] is a host's
          ascent to the exit layer *)
  exit_delay : Xmp_engine.Time.t;
      (** propagation delay of the exit layer's hops (core or spine), which
          border routers attach with *)
}
(** One datacenter description's geometry, independent of placement. *)

type t = {
  cluster : Shard.t;
  n_hosts : int;
  shard_of_host : int -> int;
  locality : src:int -> dst:int -> locality;
  n_paths : src:int -> dst:int -> int;
  zero_load_rtt : src:int -> dst:int -> Xmp_engine.Time.t;
      (** propagation-only round trip — the ideal-FCT denominator *)
  dc_ranges : (int * int) array;  (** (first host, host count) per DC *)
}

val of_shape : cluster:Shard.t -> shard_of_host:(int -> int) -> shape -> t
(** The view of a single datacenter whose hosts are [0 .. shape.hosts). *)

val host_net : t -> int -> Network.t
(** The network of the shard holding host [i]: a transport's [net]
    (sender side) or [rcv_net] (receiver side). *)

val dc_of_host : t -> int -> int
(** Index into [dc_ranges] of the DC holding host [i]; raises
    [Invalid_argument] unless [0 ≤ i < n_hosts]. *)
