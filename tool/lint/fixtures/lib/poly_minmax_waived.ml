(* [poly-minmax] fixture, pragma: a deliberate polymorphic max, waived on
   the previous line and on the same line. Never compiled; exercised by
   test/test_lint.ml. *)

let widest a b =
  (* xmplint: allow poly-minmax *)
  Stdlib.max a b

let narrowest a b = min a b (* xmplint: allow poly-minmax *)
