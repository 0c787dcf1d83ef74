module Cc = Xmp_transport.Cc
module Reno = Xmp_transport.Reno

(* alpha_r = max_k x_k / x_r >= 1, the best-path rate ratio; 1 when the
   subflow's own rate is unknown (no RTT sample yet). *)
let alpha g ~rtt_s ~cwnd =
  if rtt_s <= 0. then 1.
  else begin
    let x_r = cwnd /. rtt_s in
    if x_r <= 0. then 1. else Float.max 1. (Coupling.max_rate g /. x_r)
  end

(* Per-ACK congestion-avoidance gain:
   (x_r/rtt_r) / (Σ_k x_k)² · (1+α)/2 · (4+α)/5.
   With one path α = 1 and the gain is exactly 1/w (plain Reno); in
   general α² ≥ max/x ratios make the gain ≤ 1/w (do no harm). *)
let increase g ~rtt_s ~cwnd =
  let sum = Coupling.total_rate g in
  if rtt_s <= 0. || sum <= 0. || cwnd /. rtt_s <= 0. then 1. /. cwnd
  else begin
    let alpha = alpha g ~rtt_s ~cwnd in
    let f = (1. +. alpha) /. 2. *. ((4. +. alpha) /. 5.) in
    cwnd /. rtt_s /. rtt_s /. (sum *. sum) *. f
  end

let srtt_s s = Xmp_engine.Time.to_float_s (Reno.view s).Cc.srtt

let ops =
  Reno.ops ~name:"balia"
    ~increase:(fun s ~cwnd -> increase (Reno.ctx s) ~rtt_s:(srtt_s s) ~cwnd)
      (* Loss cut: w ← w · (1 − min(α, 1.5)/2), i.e. between half (α = 1,
         Reno-equivalent) and a quarter (α ≥ 1.5) of the window survives. *)
    ~backoff:(fun s ~cwnd ->
      1. -. (Float.min (alpha (Reno.ctx s) ~rtt_s:(srtt_s s) ~cwnd) 1.5 /. 2.))

let coupling () =
  (* loss-driven: Balia flows are not ECN-capable *)
  let params = { Reno.default_params with ecn = false } in
  Coupling.coupled ~name:"balia" (fun g view -> Reno.create ops ~params g view)
