(** DCTCP congestion control (Alizadeh et al., SIGCOMM 2010) — the paper's
    single-path ECN baseline.

    The receiver echoes the CE marks it sees (this stack echoes the exact
    per-ACK count, which is what DCTCP's one-bit state machine exists to
    reconstruct under delayed ACKs). The sender maintains
    [alpha ← (1−g)·alpha + g·F] once per window, where [F] is the fraction
    of marked segments in that window, and on the first mark of a window
    cuts [cwnd ← cwnd·(1 − alpha/2)], floored at [min_cwnd]. Losses are
    handled as in NewReno. *)

type params = {
  g : float;  (** EWMA gain for alpha, paper value 1/16 *)
  init_alpha : float;
  init_cwnd : float;
  min_cwnd : float;
}

val make : ?params:params -> Cc.factory
(** Defaults: [g = 1/16], [init_alpha = 1], [init_cwnd = 3],
    [min_cwnd = 1]. *)
