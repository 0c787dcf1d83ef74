(** AMP — the ECN-driven multipath controller of Kheirkhah & Lee,
    "AMP: A Better Multipath TCP for Data Center Networks"
    (arXiv:1707.00322), reconstructed from the paper's published rules
    (PAPERS.md carries only the abstract, so this is a documented
    reconstruction, not a line-for-line port):

    - subflows are ECN-capable and run over DCTCP-style exact-echo
      marking ({!Xmp_core.Xmp.dctcp_tcp_config});
    - congestion avoidance is semi-coupled: an acked segment on subflow
      [r] adds [1/Σ_k w_k], one segment per RTT flow-wide;
    - a CE echo halves the marked subflow's window at most once per
      window of data (classic CWR gating), replacing AMP's once-per-RTT
      marking reaction;
    - loss reactions stay NewReno per subflow — AMP's fast path
      failover rides on the transport's existing retransmission logic.

    Slow start is per-subflow standard; the first CE echo exits it. *)

val coupling : unit -> Coupling.t
(** Reno defaults with [ecn] on. *)
