(** What a workload run is built on: one k-ary fat tree, or two data
    centers joined by WAN trunks. The one value that the closed-loop
    driver, the open-loop generator and the run-spec parser all build
    from, whether the fabric runs flat or sharded. *)

type t =
  | Fat_tree of int  (** a [k]-ary fat tree ({!Fat_tree.create}) *)
  | Bridged of { left : Wan.dc_spec; right : Wan.dc_spec; trunks : Wan.trunk list }
      (** two DCs over border trunks ({!Wan.create}) *)

val shards : t -> int
(** The fabric's natural shard count: one per pod ([k]) for a fat tree,
    one per DC (2) for a bridge. *)

val create : cluster:Shard.t -> disc:(unit -> Queue_disc.t) -> t -> Topology.t
(** Builds the fabric with 1 Gbps host links and [disc] queues on a fresh
    cluster of one shard or of {!shards} shards. *)
