(** Network node: a host or a switch.

    A node owns outgoing links indexed by port. A switch forwards transit
    packets through a routing function installed by the topology builder;
    a host delivers packets addressed to itself to its local receive
    handler (the transport demultiplexer). *)

type kind = Host | Switch

type t

val create : kind:kind -> id:int -> name:string -> t

val id : t -> int

val kind : t -> kind

val name : t -> string

val add_port : t -> Link.t -> int
(** Attaches an outgoing link; returns its port number. Links are directed:
    the topology builder wires the far end's {!receive} as the link's
    receiver. *)

val port : t -> int -> Link.t

val n_ports : t -> int

val set_route : t -> (Packet.t -> int) -> unit
(** Installs the forwarding function: maps a transit packet to an egress
    port. Required for switches and for hosts that originate traffic
    through {!send}. *)

val set_local_rx : t -> (Packet.t -> unit) -> unit
(** Handler for packets whose destination is this host. *)

val receive : t -> Packet.t -> unit
(** Entry point for packets arriving on any ingress link. Delivers locally
    when [dst = id] (hosts), otherwise forwards via the routing function. *)

val send : t -> Packet.t -> unit
(** Originates a packet from this host: forwards it via the routing
    function exactly like a transit packet. *)
