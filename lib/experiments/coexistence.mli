(** Table 2 — coexistence of XMP with other schemes (§5.2.2).

    Random pattern on the fat-tree; even-indexed hosts originate XMP-2
    flows, odd-indexed hosts originate the partner scheme, under queue
    sizes of 50 and 100 packets. The paper's findings to reproduce:
    XMP ≈ DCTCP (both ECN-driven), XMP ≫ TCP, XMP > LIA with the gap
    narrowing at the larger queue (deeper buffers help the loss-driven
    schemes). *)

type cell = { xmp_mbps : float; partner_mbps : float }

type result = {
  partner : Xmp_workload.Scheme.t;
  queue_pkts : int;
  cell : cell;
}

val run :
  Run_spec.base -> partner:Xmp_workload.Scheme.t -> queue_pkts:int -> result

val extended_partners : Xmp_workload.Scheme.t list
(** The extension rows: BALIA-2, VENO-2, AMP-2. *)

val print_table2 : Run_spec.base -> unit

val print_table2_extended : Run_spec.base -> unit
(** Same layout as {!print_table2} over {!extended_partners}. *)
