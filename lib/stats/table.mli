(** Plain-text table rendering for the bench harness: each reproduced paper
    table/figure is printed as an aligned ASCII table. *)

val render : header:string list -> rows:string list list -> unit -> string
(** Renders with a header row, a separator, and one line per row. The
    first column is left-aligned and the others right-aligned. Short rows
    are padded with empty cells. *)

val print : header:string list -> rows:string list list -> unit -> unit

val fixed : int -> float -> string
(** [fixed d x] formats with [d] decimals ("--" for NaN). *)
