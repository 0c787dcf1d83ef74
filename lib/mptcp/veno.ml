module Cc = Xmp_transport.Cc
module Reno = Xmp_transport.Reno

(* Veno's default backlog threshold: below [beta_pkts] queued segments
   a loss is presumed random, not congestive. *)
let beta_pkts = 3.

(* N = w·(srtt − base)/srtt — the subflow's estimated backlog in the
   bottleneck queue (Vegas' Diff measured in segments). *)
let backlog view ~cwnd =
  let rtt_s = Xmp_engine.Time.to_float_s (view.Cc.srtt ()) in
  let base_s = Xmp_engine.Time.to_float_s (view.Cc.min_rtt ()) in
  if rtt_s <= 0. || base_s <= 0. || rtt_s <= base_s then 0.
  else cwnd *. (rtt_s -. base_s) /. rtt_s

let coupling ?(params = Reno.default_params) ?(beta_pkts = beta_pkts) () =
  (* loss-driven: Veno flows are not ECN-capable *)
  let params = { params with Reno.ecn = false } in
  Coupling.coupled ~name:"veno" (fun g view ->
      (* LIA's coupled gain in the available-bandwidth region; half of it
         in the congestive region (N ≥ β), Veno's every-other-ACK
         increase *)
      let increase ~cwnd =
        let gain = Lia.increase g ~cwnd in
        if backlog view ~cwnd >= beta_pkts then gain /. 2. else gain
      in
      (* N < β: the loss is presumed random — keep 4/5 of the window;
         otherwise congestive — classic halving *)
      let backoff ~cwnd = if backlog view ~cwnd < beta_pkts then 0.8 else 0.5 in
      Reno.make_with_increase ~params ~increase ~backoff () view)
