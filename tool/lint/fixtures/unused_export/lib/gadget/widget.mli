(* [unused-export] fixture, negative: every val has a user outside
   widget.ml, each reached a different way. Never compiled; exercised
   by test/test_lint.ml. *)

type t

val by_path : t -> int
(** [Gadget.Widget.by_path], from bin/ only: a second directory counts. *)

val by_alias : t -> int
(** [W.by_alias] after [module W = Gadget.Widget]. *)

val by_let_module : t -> int
(** [L.by_let_module] after [let module L = Widget in]. *)

val by_open : t -> int
(** A bare [by_open] after [open Widget]. *)

val by_local_open : t -> int
(** A bare [by_local_open] inside [Widget.( … )]. *)

module Part : sig
  val by_submodule : int
  (** [Gadget.Widget.Part.by_submodule]: matched on the innermost module. *)
end
