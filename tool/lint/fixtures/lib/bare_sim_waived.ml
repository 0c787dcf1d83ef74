(* [bare-sim] fixture, pragma: a deliberate bare simulator, waived on
   the previous line and on the same line. Never compiled; exercised by
   test/test_lint.ml. *)

let clock_only () =
  (* xmplint: allow bare-sim *)
  Sim.create ()

let wired sim = Network.create sim (* xmplint: allow bare-sim *)
