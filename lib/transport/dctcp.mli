(** DCTCP congestion control (Alizadeh et al., SIGCOMM 2010) — the paper's
    single-path ECN baseline.

    The receiver echoes the CE marks it sees (this stack echoes the exact
    per-ACK count, which is what DCTCP's one-bit state machine exists to
    reconstruct under delayed ACKs). The sender maintains
    [alpha ← (1−g)·alpha + g·F] once per window, where [F] is the fraction
    of marked segments in that window, and on the first mark of a window
    cuts [cwnd ← cwnd·(1 − alpha/2)]. Losses are handled as in NewReno.

    The same body runs D²TCP ({!D2tcp}): DCTCP with a gamma-corrected
    cut [alpha^d/2] supplied through {!make_cc}'s [penalty]. *)

type params = {
  g : float;  (** EWMA gain for alpha, paper value 1/16 *)
  init_alpha : float;
  init_cwnd : float;
  min_cwnd : float;
}

val default_params : params

val make : ?params:params -> Cc.factory
(** [make_cc ~name:"dctcp" ~penalty:(α/2)]. *)

val make_cc :
  name:string ->
  penalty:(alpha:float -> cwnd:float -> float) ->
  params ->
  Cc.factory
(** The DCTCP window body: state, the α EWMA, slow start and the NewReno
    loss rules. On the first CE echo of a window the window is cut to
    [cwnd·(1 − penalty ~alpha ~cwnd)], floored at [min_cwnd]. *)
