(* [bare-sim] fixture, negative: a run built on a one-shard cluster.
   Mentions of Sim.create in comments and strings, and identifiers that
   only share a prefix, are not findings. Never compiled; exercised by
   test/test_lint.ml. *)

let flat seed =
  let cluster =
    Shard.create ~config:{ Sim.default_config with seed } ~shards:1 ()
  in
  (Shard.sim cluster 0, Shard.net cluster 0)

let label = "Network.create"

let disc () = Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:8

let pool () = Sim.create_pool ()
