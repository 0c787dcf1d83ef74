(** WAN / heterogeneous-RTT evaluation over a bridged k=4/k=4 fat-tree
    pair ({!Xmp_net.Wan}) — the [wan.asym] / [wan.bdp] / [wan.mixed]
    scenario family: per-subflow RTT asymmetry across unequal trunks,
    the Eq. 1 marking threshold at WAN BDPs, and a cross-DC traffic
    fraction sweep. RTO floors are sized per topology (half the max
    zero-load RTT, ≥ 1 ms) through the run's [rto_min] field
    ({!Run_spec.wan_rto_min}). *)

val print_asym : scale:float -> unit -> unit
(** FCT slowdowns per scheme at cross-DC 0.6, the closed-loop
    utilization-by-layer table (TraSh shifting), and the
    domains:1 ≡ domains:2 digest cross-check. *)

val print_bdp : scale:float -> unit -> unit
(** The analytic Eq. 1 table for 10/40/100 ms at 1 Gbps, plus goodput
    probes with the border queue marking at K_eq1 vs K_eq1/16. Runs at
    a fixed probe size (the [scale] argument is ignored). *)

val print_mixed : scale:float -> unit -> unit
(** FCT slowdowns at cross-DC fractions 0 / 0.25 / 0.75 over a single
    40 ms trunk. *)

val asym_key : scale:float -> string
(** Scenario key of {!print_asym}: the canonical {!Run_spec} of every
    run it makes. *)

val bdp_key : string
(** Scenario key of {!print_bdp}: the probe size and each probe's spec. *)

val mixed_key : scale:float -> string
(** Scenario key of {!print_mixed}. *)
