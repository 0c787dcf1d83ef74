(* [unused-export] fixture, pragma: two vals without users, waived on
   the previous line and on the same line. Never compiled; exercised by
   test/test_lint.ml. *)

(* xmplint: allow unused-export *)
val debug_dump : unit -> string

val spare : int (* xmplint: allow unused-export *)
