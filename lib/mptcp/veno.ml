module Cc = Xmp_transport.Cc
module Reno = Xmp_transport.Reno

(* Veno's backlog threshold: below [beta_pkts] queued segments a loss
   is presumed random, not congestive. *)
let beta_pkts = 3.

(* N = w·(srtt − base)/srtt — the subflow's estimated backlog in the
   bottleneck queue (Vegas' Diff measured in segments). *)
let backlog (view : Cc.view) ~cwnd =
  let rtt_s = Xmp_engine.Time.to_float_s view.Cc.srtt in
  let base_s = Xmp_engine.Time.to_float_s view.Cc.min_rtt in
  if rtt_s <= 0. || base_s <= 0. || rtt_s <= base_s then 0.
  else cwnd *. (rtt_s -. base_s) /. rtt_s

let coupling () =
  (* loss-driven: Veno flows are not ECN-capable *)
  let params = { Reno.default_params with ecn = false } in
  let ops =
    Reno.ops ~name:"veno"
    (* LIA's coupled gain in the available-bandwidth region; half of it
       in the congestive region (N ≥ β), Veno's every-other-ACK
       increase *)
      ~increase:(fun s ~cwnd ->
        let gain = Lia.increase (Reno.ctx s) ~cwnd in
        if backlog (Reno.view s) ~cwnd >= beta_pkts then gain /. 2. else gain)
      (* N < β: the loss is presumed random — keep 4/5 of the window;
         otherwise congestive — classic halving *)
      ~backoff:(fun s ~cwnd ->
        if backlog (Reno.view s) ~cwnd < beta_pkts then 0.8 else 0.5)
  in
  Coupling.coupled ~name:"veno" (fun g view -> Reno.create ops ~params g view)
