(** Linked Increases Algorithm — MPTCP's default coupled congestion control
    (Wischik et al., NSDI 2011; RFC 6356) and the paper's main multipath
    baseline.

    In congestion avoidance, an ACK for one segment on subflow [r]
    increases its window by

    {v min( alpha / cwnd_total , 1 / cwnd_r ) v}

    with [alpha = cwnd_total · max_i(cwnd_i/rtt_i²) / (Σ_i cwnd_i/rtt_i)²].
    Slow start and loss reactions are per-subflow NewReno. LIA is
    loss-driven: its flows are not ECN-capable in the paper's experiments,
    so they fill drop-tail buffers and pay 200 ms RTOs — the behaviour
    Tables 1 and 3 report. *)

val alpha :
  windows_rtts:(float * float) list -> float
(** [alpha ~windows_rtts] over [(cwnd, rtt_s)] pairs; exposed for tests. *)

val increase : Coupling.group -> cwnd:float -> float
(** The coupled per-ACK gain [min(alpha / cwnd_total, 1 / cwnd)] over the
    group's members ([1/cwnd] while the group is empty); MP-Veno
    modulates the same gain. *)

val coupling : unit -> Coupling.t
