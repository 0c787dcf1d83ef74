(* [poly-minmax] fixture, negative: monomorphic min/max, definitions of
   a [min]/[max] of one's own, argument labels, record fields, and
   mentions in comments (Stdlib.max) or strings are not findings. Never
   compiled; exercised by test/test_lint.ml. *)

let window cwnd = Int.max 1 (int_of_float cwnd)

let rate a b = Float.min a b

let deadline a b = Time.max a b

let min = Int.min

let clamp ~max:limit x = Int.min limit x

let bounds = { lo = 0; max = 10 }

let label = "Stdlib.min"
