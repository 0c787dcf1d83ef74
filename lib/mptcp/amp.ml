module Reno = Xmp_transport.Reno

let default_params = { Reno.default_params with ecn = true }

let coupling ?(params = default_params) () =
  let params = { params with Reno.ecn = true } in
  Coupling.coupled ~name:"amp" (fun g ->
      (* semi-coupled congestion avoidance: each acked segment adds
         1/Σ_k w_k, so the flow as a whole grows one segment per RTT
         regardless of how many subflows it runs (≤ 1/w on every
         subflow — do no harm) *)
      let increase ~cwnd =
        let total = Coupling.total_cwnd g in
        if total <= 0. then 1. /. cwnd else Float.min (1. /. total) (1. /. cwnd)
      in
      Reno.make_with_increase ~params ~increase ~backoff:Reno.halving ())
