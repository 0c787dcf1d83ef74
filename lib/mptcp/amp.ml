module Reno = Xmp_transport.Reno

(* semi-coupled congestion avoidance: each acked segment adds
   1/Σ_k w_k, so the flow as a whole grows one segment per RTT
   regardless of how many subflows it runs (≤ 1/w on every
   subflow — do no harm) *)
let increase s ~cwnd =
  let total = Coupling.total_cwnd (Reno.ctx s) in
  if total <= 0. then 1. /. cwnd else Float.min (1. /. total) (1. /. cwnd)

let ops = Reno.ops ~name:"amp" ~increase ~backoff:Reno.halving

let coupling () =
  let params = { Reno.default_params with ecn = true } in
  Coupling.coupled ~name:"amp" (fun g view -> Reno.create ops ~params g view)
