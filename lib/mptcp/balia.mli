(** BALIA — the Balanced Linked Adaptation coupled controller
    (Peng, Walid, Hwang & Low, "Multipath TCP: Analysis, Design and
    Implementation", IEEE/ACM ToN 2016; the Linux [mptcp_balia] module).

    Per ACK of one segment on subflow [r] in congestion avoidance, with
    rates [x_k = w_k/rtt_k] and [α_r = max_k x_k / x_r]:

    {v (x_r/rtt_r) / (Σ_k x_k)² · (1+α_r)/2 · (4+α_r)/5 v}

    On loss the window is cut to [w_r·(1 − min(α_r, 1.5)/2)] — half at
    α = 1, down to a quarter on strongly imbalanced paths. With a single
    path α = 1 and both rules collapse to plain Reno. BALIA is
    loss-driven (not ECN-capable), like LIA and OLIA in the paper's
    Table 2 setup. *)

val coupling : unit -> Coupling.t
