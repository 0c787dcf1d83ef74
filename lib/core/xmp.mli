(** XMP — eXplicit MultiPath congestion control: the public facade.

    XMP = {!Bos} (per-subflow window control against ECN marks) +
    {!Trash} (per-round δ retuning that shifts traffic toward less
    congested paths). This module bundles the pieces with the transport
    configuration and switch marking discipline the paper deploys them
    with. Typical use:

    {[
      let disc () = Xmp_core.Xmp.switch_disc ~params ~queue_pkts:100 () in
      (* build a topology whose switches use [disc] ... *)
      let flow =
        Xmp_core.Xmp.flow ~net ~flow:1 ~src ~dst ~paths:[0; 1] ()
      in
      ...
    ]} *)

val bos : unit -> Xmp_transport.Cc.factory
(** Single-path BOS controller (δ = 1) with the paper's parameters. *)

val bos_params : Params.t -> Bos.params
(** BOS parameters from a [(β, K)] pair, paper defaults elsewhere. *)

val tcp_config : Xmp_transport.Tcp.config
(** Transport configuration for XMP endpoints: ECT on, exact CE echo
    capped at 3 per ACK (the 2-bit ECE/CWR encoding). *)

val dctcp_tcp_config : Xmp_transport.Tcp.config
(** For the DCTCP baseline: ECT on, uncapped CE echo. *)

val plain_tcp_config : Xmp_transport.Tcp.config
(** For TCP/LIA baselines: not ECN-capable. *)

val switch_disc :
  ?params:Params.t -> ?queue_pkts:int -> unit -> unit -> Xmp_net.Queue_disc.t
(** Queue-discipline factory for switches: threshold marking at [K] over a
    [queue_pkts]-packet drop-tail buffer (defaults: paper's K = 10,
    100 packets). Usable directly as the [disc] argument of the topology
    builders. *)

val flow :
  net:Xmp_net.Network.t ->
  flow:int ->
  src:int ->
  dst:int ->
  paths:int list ->
  ?size_segments:int ->
  ?observer:Xmp_mptcp.Mptcp_flow.observer ->
  unit ->
  Xmp_mptcp.Mptcp_flow.t
(** An MPTCP flow running XMP (BOS + TraSh) with the paper's parameters
    and transport settings.
    [observer] (default {!Xmp_mptcp.Mptcp_flow.silent}) receives the
    flow's lifecycle events. *)
