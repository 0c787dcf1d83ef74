(** Figure 6 — fairness on the Figure 3(b) testbed (§4).

    Four XMP flows share one 300 Mbps bottleneck. Flow 1 grows from one to
    three subflows (established at 0, 5 and 15 s), Flow 2 brings up two
    subflows at 20 s, Flows 3 and 4 are single-path (starting at 0 and
    10 s) and both stop at 25 s. With β = 4 every *flow* should hold
    roughly one fair share regardless of its subflow count; with β = 6
    fairness degrades. *)

type result = {
  beta : int;
  bucket_s : float;
  subflow_rates : (string * float array) list;  (** normalized, per subflow *)
  flow_rates : (string * float array) list;  (** summed per flow *)
  jain_flows : float;
      (** Jain index across the four flow totals while all are active
          (the window just after Flow 2 joins) *)
}

val geometry : Panel.geometry
(** Figure 3(b): {!Fig4.geometry} with four host pairs and one
    bottleneck. *)

val seed : int
(** The seed the scenario registry runs the figure with. *)

val run :
  scale:float -> seed:int -> ?telemetry:Xmp_telemetry.Sink.t ->
  faults:Xmp_engine.Fault_spec.t -> beta:int -> unit -> result
(** [telemetry] (default the null sink) instruments the run for
    [xmp_sim trace]. *)

val print : result -> unit
