(** XMP parameter rules (§2.1, Equation 1).

    XMP has two configurable parameters: the switch marking threshold [K]
    (packets) and the window reduction factor [β] ([cwnd] shrinks by
    [cwnd/β] on congestion). For full utilization with a window oscillating
    between [K + BDP] and [(K + BDP)(1 − 1/β)], Equation 1 requires

    {v K ≥ BDP / (β − 1),  β ≥ 2. v}

    The paper picks [β = 4] and [K = 10] for 1 Gbps / sub-400 µs DCNs
    (BDP ≈ 33 packets) and argues β should stay within roughly 2–6. *)

type t = {
  beta : int;  (** window reduction divisor, ≥ 2 *)
  k : int;  (** marking threshold, packets *)
}

val default : t
(** β = 4, K = 10 — the paper's recommended DCN setting. *)

val make : beta:int -> k:int -> t
(** Validates β ≥ 2 and K ≥ 1. *)

val bdp_packets :
  rate:Xmp_net.Units.rate -> rtt:Xmp_engine.Time.t -> packet_bytes:int ->
  float
(** Bandwidth-delay product in packets: [rate · rtt / (8 · packet_bytes)]. *)

val min_k : bdp_packets:float -> beta:int -> int
(** Equation 1: the smallest integer [K] that keeps the link busy,
    [⌈BDP / (β − 1)⌉]. *)

val sufficient : t -> bdp_packets:float -> bool
(** Whether [t.k] satisfies Equation 1 for the given BDP. *)

val for_network :
  rate:Xmp_net.Units.rate ->
  rtt:Xmp_engine.Time.t ->
  beta:int ->
  t
(** Parameters with the minimal Equation-1-compliant [K] for a network
    of full-size data segments. *)
