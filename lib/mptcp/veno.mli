(** MP-Veno — TCP Veno's delay-threshold loss discrimination (Fu & Liew,
    JSAC 2003) grafted onto LIA's coupled increase, after the
    [mp_veno_sender] exemplar.

    Each subflow estimates its bottleneck backlog from the RTT inflation
    over the path's base RTT ({!Xmp_transport.Cc.view}'s [min_rtt]):

    {v N = w · (srtt − base_rtt) / srtt v}

    In congestion avoidance the subflow applies LIA's coupled gain while
    [N < β] (β = 3 segments) and half of it once [N ≥ β] (Veno's
    increase-every-other-ACK rule). On fast retransmit the cut keeps 4/5
    of the window when [N < β] — the loss is presumed random — and half
    otherwise. Loss-driven (not ECN-capable). *)

val coupling : unit -> Coupling.t
