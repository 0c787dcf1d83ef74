(** Network container: node/link registry, directed wiring helper, and the
    per-host transport demultiplexer.

    Delivery is a packet's last stop: the demultiplexer hands it to the
    registered endpoint handler (or dead-letters it) and then releases it
    back to the {!Packet} pool, so handlers must extract what they keep
    before returning. *)

type t

val create : Xmp_engine.Sim.t -> t

val sim : t -> Xmp_engine.Sim.t

val add_host : t -> name:string -> Node.t

val add_switch : t -> name:string -> Node.t

val add_host_at : t -> id:int -> name:string -> Node.t
(** Like {!add_host} with an explicit node id — sharded topologies keep
    host ids globally meaningful across shard networks. The id must fit
    the packed 20-bit host range and be unused; ids skipped over are
    never assigned implicitly afterwards. *)

val add_switch_at : t -> id:int -> name:string -> Node.t

val node : t -> int -> Node.t

val find_node : t -> int -> Node.t option
(** The node with id [i], or [None] when this network holds none (on a
    sharded fabric a node lives in one shard's network). *)

val n_nodes : t -> int

val connect :
  t ->
  ?tag:string ->
  rate:Units.rate ->
  delay:Xmp_engine.Time.t ->
  disc:(unit -> Queue_disc.t) ->
  Node.t ->
  Node.t ->
  Link.t * Link.t
(** [connect t ~rate ~delay ~disc a b] creates a link in each direction
    (each with its own queue discipline from the factory), attaches them as
    ports on [a] and [b], and wires packet delivery to the far node's
    receive. Returns [(a_to_b, b_to_a)]. The [tag] labels both directions
    (e.g. the fat-tree layer) for utilization grouping. *)

val add_egress :
  t ->
  ?tag:string ->
  name:string ->
  rate:Units.rate ->
  delay:Xmp_engine.Time.t ->
  disc:(unit -> Queue_disc.t) ->
  Node.t ->
  (Packet.t -> unit) ->
  Link.t
(** [add_egress t ~name ~rate ~delay ~disc src receiver] creates a single
    directed link whose deliveries go to [receiver] instead of a peer
    node — the seam {!Shard} portals use to hand packets across a domain
    boundary. The link takes the next port number on [src] exactly as
    {!connect} would, so builders can substitute a portal for a local
    link without disturbing port-indexed routing. The receiver owns each
    delivered packet (it must pass it on or release it). *)

val links : t -> Link.t list
(** All links, in creation order. *)

val links_tagged : t -> string -> Link.t list

val tag_of_link : t -> Link.t -> string option

val find_link : t -> name:string -> Link.t option
(** Looks a link up by its ["src->dst"] name (first match in creation
    order; builder-generated names are unique). How fault schedules and
    the CLI address links. *)

val register_endpoint :
  t -> host:int -> flow:int -> subflow:int -> (Packet.t -> unit) -> unit
(** Registers the transport handler for packets of [(flow, subflow)]
    arriving at [host]. Replaces any previous registration.

    Endpoint keys are packed into one immediate int for per-packet
    dispatch, so the components are range-checked here: [host] must fit
    20 bits, [flow] 30 bits and [subflow] 12 bits (all non-negative);
    out-of-range values raise [Invalid_argument]. *)

val unregister_endpoint : t -> host:int -> flow:int -> subflow:int -> unit
(** Removing a registration outside the packed ranges is a no-op (nothing
    could have been registered there). *)

val endpoint_stats : t -> Hashtbl.statistics
(** Shape of the endpoint table: bindings, buckets and chain lengths.
    Delivery, registration and removal each walk one chain, so
    [max_bucket_length] bounds their per-packet cost. *)

val packets_dead_lettered : t -> int
(** Packets that arrived at a host with no registered endpoint (e.g. after
    the flow completed and tore down); they are counted and discarded. *)
