(** Streaming mean/variance (Welford's algorithm) plus min/max. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Population variance; 0 with fewer than two samples. *)

val min : t -> float
(** [nan] when empty. *)

val max : t -> float
(** [nan] when empty. *)

val total : t -> float
(** Sum of all samples. *)

val merge : t -> t -> t
(** Combines two summaries as if all samples were added to one. *)
