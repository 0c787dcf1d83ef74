(* [bare-sim] fixture, positive: a simulator and a network built outside
   a cluster, under every spelling the rule matches (three findings).
   Never compiled; exercised by test/test_lint.ml. *)

let flat () =
  let sim = Sim.create () in
  let net = Net.Network.create sim in
  (sim, net)

let seeded seed =
  Xmp_engine.Sim.create ~config:{ Xmp_engine.Sim.default_config with seed } ()
