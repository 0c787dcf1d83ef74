(** Parallel-bottleneck testbed topologies.

    A bank of [n_left] sender hosts, a bank of [n_right] receiver hosts and
    [m] two-way bottleneck links between them, each bottleneck fronted by a
    pair of switches (the paper's DummyNet boxes):

    {v
      S1 --+                         +-- D1
      S2 --+--[IN_j]==L_j==[OUT_j]--+-- D2      (one IN/OUT pair per j)
      S3 --+                         +-- D3
    v}

    Every host has a dedicated access link to every IN (senders) or OUT
    (receivers) switch, so a packet's [path] field selects which bottleneck
    it crosses. Access links are fast and unmarked: the bottlenecks are the
    only congestion points, exactly as in the paper's testbed (§4) and
    ring/torus simulation (§5.1).

    This one builder instantiates: Figure 1's single bottleneck, Figure
    3(a)'s two-path traffic-shifting testbed, Figure 3(b)'s shared
    bottleneck fairness testbed, and Figure 5's five-bottleneck ring, each
    in the network of a one-shard cluster ([Shard.create ~shards:1]).

    Bottleneck [j] (0-based) is the link pair ["IN{j+1}->OUT{j+1}"] (left
    to right) / ["OUT{j+1}->IN{j+1}"], found by name with
    {!Network.find_link} as fault schedules do. Host to host, its one-way
    propagation is [2 * access_delay + delay]. *)

type spec = {
  rate : Units.rate;
  delay : Xmp_engine.Time.t;  (** one-way propagation of the bottleneck *)
  disc : unit -> Queue_disc.t;
}

type t = { left_base : int; n_left : int; right_base : int; n_right : int }
(** Sender hosts are node ids [left_base .. left_base + n_left - 1],
    receivers [right_base .. right_base + n_right - 1]. *)

val create :
  net:Network.t ->
  n_left:int ->
  n_right:int ->
  bottlenecks:spec list ->
  ?access_delay:Xmp_engine.Time.t ->
  unit ->
  t
(** Access links are 10 Gbps with a 1000-packet drop-tail queue, and
    their delay defaults to 5 µs. *)

val left_id : t -> int -> int
(** Node id of sender host [i]. *)

val right_id : t -> int -> int
