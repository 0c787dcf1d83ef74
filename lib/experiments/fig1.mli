(** Figure 1 — DCTCP versus constant-factor ("halving cwnd") reduction on
    one bottleneck (§2.1).

    Four ECN flows share a 1 Gbps link (zero-load RTT 225 µs, 100-packet
    queue, instantaneous-threshold marking at K). Flows start one by one,
    then stop one by one, at a fixed interval. The paper's observation:
    DCTCP can converge to unfair shares (especially at small K) while a
    constant 1/2 reduction with K satisfying Equation 1 is both fair and
    fully utilizing; K = 10 loses little because a smaller K shortens the
    RTT and speeds window growth.

    "Halving cwnd" is exactly BOS with β = 2, so this experiment is the
    paper's motivation for BOS run against its DCTCP baseline. *)

type variant = { dctcp : bool; k : int }

type result = {
  variant : variant;
  bucket_s : float;
  rates : (string * float array) list;  (** normalized per-flow rates *)
  utilization : float;  (** bottleneck utilization over the run *)
  jain_all_active : float;
      (** Jain index of flow rates while all four flows are active *)
}

val variants : variant list
(** The paper's four panels: DCTCP/halving × K ∈ \{10, 20\}. *)

val geometry : Panel.geometry
(** The dumbbell: four host pairs, one 1 Gbps bottleneck, zero-load RTT
    225 µs. *)

val seed : int
(** The seed the scenario registry runs the figure with. *)

val run :
  scale:float -> seed:int -> ?telemetry:Xmp_telemetry.Sink.t ->
  faults:Xmp_engine.Fault_spec.t -> variant -> result
(** [scale] multiplies the paper's 5 s schedule interval (the registry's
    0.2 makes flows arrive/leave every second — convergence takes
    milliseconds, so the dwell time is still ≫ 100× convergence);
    [faults] is armed against the testbed before the flows start.
    [telemetry] (default the null sink) instruments the run for
    [xmp_sim trace]. *)

val print : result -> unit
