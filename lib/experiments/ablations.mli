(** Ablation benches for the design choices the paper calls out.

    - {b β sweep}: §2.1/§7 argue β should sit in roughly 2–6 — larger β
      means lower latency headroom but slower convergence and worse
      fairness. We rerun the Figure 6 fairness scenario across β.
    - {b K sweep}: Equation 1 predicts the smallest K that keeps the link
      busy; we sweep K on one bottleneck and report utilization and RTT,
      locating the knee.
    - {b Subflow sweep}: Raiciu et al. say LIA needs ~8 subflows for good
      fat-tree utilization; the paper claims XMP needs far fewer (§5.2.2).
      We sweep subflow counts under the Permutation pattern.
    - {b Coupling comparison}: LIA vs OLIA vs XMP at 2 and 4 subflows
      (OLIA is the §7 future-work fix). *)

val print_beta_sweep : scale:float -> ?betas:int list -> unit -> unit
(** One Figure 6 panel per β in [betas] (default {!sweep_betas}), at the
    figure's own seed and with no faults. *)

val sweep_betas : int list

val print_k_sweep : ?ks:int list -> unit -> unit
(** At β = 4. *)

val k_sweep_seed : int
(** The simulator seed of every K-sweep point. *)

val print_subflow_sweep : Run_spec.base -> unit
(** LIA and XMP at 1 to 4 subflows. *)

val print_coupling_comparison : Run_spec.base -> unit

val print_flow_size_sweep : Run_spec.base -> unit
(** Scale artifact made explicit: sweeping flow sizes shows LIA-4's
    advantage over LIA-2 appearing only for long-lived flows (the paper's
    regime), because slow-start restart losses cost many-subflow LIA a
    200 ms RTO each. *)

val print_incast_fanout_sweep : Run_spec.base -> unit
(** Pure incast microbenchmark (no background): job completion time versus
    fanout, locating the buffer-overflow knee where the 200 ms RTO
    collapse of Figure 9 begins. *)

val print_rto_min_sweep : Run_spec.base -> unit
(** §6 cites Vasudevan et al.'s fine-grained-RTO proposal and notes it
    "may also help MPTCP improve its throughput": sweep RTOmin under the
    Incast pattern for LIA-2 and XMP-2 and report job completion times and
    background goodput. *)

val print_sack_comparison : Run_spec.base -> unit
(** How much of the baselines' deficit is loss recovery rather than
    congestion control: rerun the Permutation matrix with SACK-based
    recovery enabled on every flow. *)

val print_queue_occupancy : unit -> unit
(** The paper's premise (§1/§2): ECN-driven schemes hold buffer occupancy
    near K (10, with β = 4) while loss-driven ones fill the buffer. Four
    flows of each scheme share one 1 Gbps bottleneck; the queue is
    sampled every 100 µs and summarized. *)

val queue_seed : int
(** The simulator seed of every queue-occupancy run. *)
