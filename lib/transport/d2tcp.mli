(** D²TCP — Deadline-Aware Datacenter TCP (Vamanan et al., SIGCOMM 2012),
    one of the ECN schemes the paper's related-work section positions XMP
    against (§6: "uses ECN to make flows with tight deadlines obtain more
    bandwidth").

    D²TCP is DCTCP with a gamma-corrected cut: it runs on the DCTCP
    window body ({!Dctcp.ops}) — same α estimate, slow start and loss
    rules — but raises α to a deadline-imminence factor [d]:

    {v cwnd ← cwnd · (1 − α^d / 2) v}

    where [d = Tc / D] is the ratio of the time the flow still *needs*
    (at its current rate) to the time its deadline still *allows*.
    Far-from-deadline flows (d < 1) back off more than DCTCP; imminent
    flows (d > 1) back off less, stealing bandwidth exactly when they
    need it. [d] is clamped to \[0.5, 2\] as in the paper. Deadline-less
    flows use d = 1 and behave exactly like DCTCP. *)

type params = {
  g : float;  (** EWMA gain for alpha *)
  init_alpha : float;
  init_cwnd : float;
  min_cwnd : float;
  d_min : float;  (** clamp floor for the imminence factor (0.5) *)
  d_max : float;  (** clamp ceiling (2.0) *)
}

val default_params : params

type deadline = {
  total_segments : int;  (** flow size *)
  deadline_at : Xmp_engine.Time.t;  (** absolute completion deadline *)
}

val imminence :
  params:params ->
  remaining_segments:int ->
  rate_segments_per_s:float ->
  time_left_s:float ->
  float
(** The clamped factor [d = Tc / D]; exposed for unit tests. Returns
    [d_max] when the deadline has passed or no rate is measurable. *)

val make_cc :
  ?params:params ->
  ?deadline:deadline ->
  acked:(unit -> int) ->
  unit ->
  Cc.factory
(** [acked] reports segments delivered so far (the flow's progress
    counter), from which the remaining demand is derived. Without
    [deadline], behaves as DCTCP. *)
