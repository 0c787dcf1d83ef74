(** DCTCP congestion control (Alizadeh et al., SIGCOMM 2010) — the paper's
    single-path ECN baseline.

    The receiver echoes the CE marks it sees (this stack echoes the exact
    per-ACK count, which is what DCTCP's one-bit state machine exists to
    reconstruct under delayed ACKs). The sender maintains
    [alpha ← (1−g)·alpha + g·F] once per window, where [F] is the fraction
    of marked segments in that window, and on the first mark of a window
    cuts [cwnd ← cwnd·(1 − alpha/2)]. Losses are handled as in NewReno.

    The same body runs D²TCP ({!D2tcp}): DCTCP with a gamma-corrected
    cut [alpha^d/2] supplied through {!ops}' [penalty]. *)

type params = {
  g : float;  (** EWMA gain for alpha, paper value 1/16 *)
  init_alpha : float;
  init_cwnd : float;
  min_cwnd : float;
}

val default_params : params

val make : ?params:params -> Cc.factory
(** DCTCP: the window body below with the cut [penalty = α/2]. *)

type 'c state
(** One controller of the DCTCP window body: state, the α EWMA, slow
    start and the NewReno loss rules, plus the family's per-instance
    context ['c]. *)

val ops :
  name:string ->
  penalty:('c -> Cc.view -> alpha:float -> cwnd:float -> float) ->
  'c state Cc.ops
(** A family of the DCTCP body, built once: on the first CE echo of a
    window the window is cut to [cwnd·(1 − penalty ctx view ~alpha
    ~cwnd)], floored at [min_cwnd]. *)

val create : 'c state Cc.ops -> params -> 'c -> Cc.factory
