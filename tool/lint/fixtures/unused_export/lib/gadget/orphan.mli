(* [unused-export] fixture, positive: five vals with no user outside
   orphan.ml (five findings). Never compiled; exercised by
   test/test_lint.ml. *)

type t = { count : int }

val unused : int -> int
(** Named nowhere. *)

val self_only : int -> int
(** Called only by orphan.ml itself. *)

val count : t -> int
(** Elsewhere only the record field [r.count] is read. *)

val after_scope : int
(** Named bare only after [Orphan.( … )] has closed. *)

module Inner : sig
  val hidden : int
  (** Only ever spelled [Orphan.hidden], which is not this val. *)
end
