(** Opportunistic Linked Increases Algorithm (Khalili et al., CoNEXT 2012).

    The paper's §7 notes TraSh shares LIA's non-Pareto-optimality and that
    OLIA's fix could be applied; we implement OLIA as an extension baseline
    so the ablation bench can compare all three couplings.

    Per ACK of one segment on path [r]:

    {v (w_r/rtt_r²) / (Σ_p w_p/rtt_p)²  +  α_r / w_r v}

    where [α_r] moves window between the "best" paths (largest ℓ_r²/rtt_r,
    with ℓ_r the inter-loss data estimate) and the "collected" paths
    (largest windows): best-but-not-collected paths get
    [+1/(n·|B∖M|)], collected paths get [−1/(n·|M|)] when some best path
    is not collected, and 0 otherwise. *)

val coupling : unit -> Coupling.t
