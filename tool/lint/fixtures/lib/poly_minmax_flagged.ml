(* [poly-minmax] fixture, positive: the polymorphic min/max under every
   spelling the rule matches (four findings). Never compiled; exercised
   by test/test_lint.ml as a file of lib/transport/. *)

let window cwnd = Stdlib.max 1 (int_of_float cwnd)

let clamp lo hi x = Stdlib.min hi (max lo x)

let smallest a b = min a b
