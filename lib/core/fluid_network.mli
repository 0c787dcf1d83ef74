(** Multi-flow, multi-link fluid dynamics of BOS — the "further
    theoretical analysis" the paper's §7 calls for, usable to predict
    Figure 1/6-style convergence without running the packet simulator.

    The model couples the window ODE (Equation 2) of every subflow with
    explicit queue dynamics at every link:

    - queue:    [dq_l/dt = Σ_{r ∋ l} x_r − c_l], clamped at 0,
    - marking:  a smooth sigmoid around the threshold K (the fluid limit
      of instantaneous-threshold marking),
    - rtt:      base propagation plus the queueing delay of every link on
      the path,
    - window:   [dw_r/dt = δ_r(1−p_r)/T_r − w_r·p_r/(T_r·β)] with
      [p_r = 1 − Π_l (1 − p_l)],
    - TraSh:    δ is refreshed from Equation 9 at every step when the
      flow has multiple subflows.

    Time is advanced by explicit Euler steps. The test suite checks the
    fixed points against the packet-level simulator. *)

type link = {
  capacity : float;  (** segments per second *)
  k_threshold : float;  (** marking threshold, packets *)
  mark_sharpness : float;
      (** sigmoid steepness (packets); smaller = closer to the
          discontinuous rule *)
}

val link :
  ?mark_sharpness:float -> rate:Xmp_net.Units.rate -> k:int -> unit -> link
(** Convenience: capacity from a bit rate (1500 B wire segments). *)

type subflow = {
  flow : int;  (** owning flow id (couples δ across subflows) *)
  links : int list;  (** indices into the link array *)
  base_rtt : float;  (** propagation RTT, seconds *)
}

type t

val create : beta:int -> links:link list -> subflows:subflow list -> t

val run : t -> dt:float -> steps:int -> unit
(** [steps] Euler steps of [dt] seconds. *)

val window : t -> int -> float
(** Current window of subflow [i], segments. *)

val rate : t -> int -> float
(** Current rate of subflow [i], segments per second. *)

val queue : t -> int -> float
(** Current queue of link [l], packets. *)

val delta : t -> int -> float
(** Current TraSh gain of subflow [i]. *)

val total_arrival : t -> int -> float
(** Aggregate arrival rate at link [l], segments per second. *)
