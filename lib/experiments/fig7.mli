(** Figure 7 — rate compensation on the Figure 5 ring (§5.1).

    Five bottleneck links L1..L5 with capacities 0.8 / 1.2 / 2 / 1.5 /
    0.5 Gbps. Flow i (i = 1..5) has two subflows: one on L_i and one on
    L_{i+1} (L5 wraps to L1 — the "torus"). Flows start one per interval;
    then four single-path background flows pile onto L3 one per interval
    and later leave one per interval; finally L3 goes down entirely.

    Expected shape (the "attenuated dominos"): as L3 congests, Flow 2-2
    and Flow 3-1 fall while their siblings 2-1 and 3-2 rise in
    compensation, which in turn pushes Flow 1-2 and Flow 4-1 down a
    little; Flows 1-1, 4-2 (and 5) barely move. For each flow, when one
    subflow's curve is concave the sibling's is convex. *)

type result = {
  beta : int;
  k : int;
  interval_s : float;
  rates : (string * float array) list;
      (** interval-averaged subflow rates of Flows 1–5, normalized to
          1 Gbps; one value per schedule interval *)
}

val geometry : Panel.geometry
(** Figure 5's ring: nine host pairs, the five bottlenecks L1..L5. *)

val seed : int
(** The seed the scenario registry runs the figure with. *)

val run :
  scale:float -> seed:int -> ?telemetry:Xmp_telemetry.Sink.t ->
  faults:Xmp_engine.Fault_spec.t -> beta:int -> k:int -> unit -> result
(** [telemetry] (default the null sink) instruments the run for
    [xmp_sim trace]. *)

val print : result -> unit
