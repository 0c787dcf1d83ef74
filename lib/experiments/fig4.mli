(** Figure 4 — traffic shifting on the Figure 3(a) testbed (§4).

    Three XMP flows start together: Flow 1 crosses bottleneck DN1, Flow 3
    crosses DN2, Flow 2 has a subflow on each. A background flow loads DN1
    during the second quarter of the run and DN2 during the third. Flow
    2's subflows should shift traffic away from whichever path is loaded
    and compensate on the other; a larger β slows the shift (the paper's
    β = 6 panel).

    Testbed parameters as the paper: 300 Mbps bottlenecks, zero-load RTT
    1.8 ms (BDP ≈ 45 packets), K = 15, 100-packet queues. *)

type result = {
  beta : int;
  bucket_s : float;
  rates : (string * float array) list;
      (** Flow 2's subflow rates, normalized to 300 Mbps *)
  shifted_share : float;
      (** Flow 2-1's mean share while DN1 is loaded — low when shifting
          works *)
  compensation : float;
      (** Flow 2's total rate while DN1 is loaded / its unloaded total *)
}

val bottleneck_rate : Xmp_net.Units.rate
(** 300 Mbps, every bottleneck of the Figure 3 testbeds. *)

val geometry : Panel.geometry
(** Figure 3(a): five host pairs, two bottlenecks DN1 and DN2. *)

val seed : int
(** The seed the scenario registry runs the figure with. *)

val run :
  scale:float -> seed:int -> ?telemetry:Xmp_telemetry.Sink.t ->
  faults:Xmp_engine.Fault_spec.t -> beta:int -> unit -> result
(** [telemetry] (default the null sink) instruments the run for
    [xmp_sim trace]; [faults] is armed against the testbed before the
    flows start. *)

val print : result -> unit
