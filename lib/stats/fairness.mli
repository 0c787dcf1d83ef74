(** Fairness metrics for bandwidth allocations. *)

val jain : float list -> float
(** Jain's fairness index [(Σx)² / (n·Σx²)]: 1 for a perfectly equal
    allocation, 1/n when one member takes everything. Returns 1 for an
    empty or all-zero allocation. *)
