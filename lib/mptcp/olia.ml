module Reno = Xmp_transport.Reno
module Cc = Xmp_transport.Cc

(* One flow's paths in subflow order (OLIA's own list, not the coupling
   group's), each a Reno window whose context is its loss record. *)
type flow = { mutable paths : path Reno.state list }

and path = { flow : flow; losses : losses }

(* a record of floats alone, which OCaml stores flat: the per-ACK write
   allocates no box *)
and losses = {
  mutable since_loss : float;  (* segments acked since the last loss *)
  mutable between_losses : float;  (* segments between the last two *)
}

let interloss p = Float.max p.losses.since_loss p.losses.between_losses

let epsilon = 1e-9

let srtt_s s = Xmp_engine.Time.to_float_s (Reno.view s).Cc.srtt

(* alpha_r for path [me] given all paths of the flow *)
let alpha_for paths me =
  let n = List.length paths in
  if n <= 1 then 0.
  else begin
    let quality s =
      let rtt_s = srtt_s s in
      let p = Reno.ctx s in
      if rtt_s > 0. then interloss p *. interloss p /. rtt_s else 0.
    in
    let best_q = List.fold_left (fun acc p -> Float.max acc (quality p)) 0. paths in
    let max_w =
      List.fold_left (fun acc p -> Float.max acc (Reno.cwnd p)) 0. paths
    in
    let is_best p = quality p >= best_q -. epsilon in
    let is_collected p = Reno.cwnd p >= max_w -. epsilon in
    let best_not_collected =
      List.filter (fun p -> is_best p && not (is_collected p)) paths
    in
    let collected = List.filter is_collected paths in
    if List.is_empty best_not_collected then 0.
    else if is_best me && not (is_collected me) then
      1. /. (float_of_int n *. float_of_int (List.length best_not_collected))
    else if is_collected me then
      -1. /. (float_of_int n *. float_of_int (List.length collected))
    else 0.
  end

let on_loss p =
  p.losses.between_losses <- p.losses.since_loss;
  p.losses.since_loss <- 0.

let increase s ~cwnd =
  let all = (Reno.ctx s).flow.paths in
  let denom =
    List.fold_left
      (fun acc q ->
        let rtt_s = srtt_s q in
        if rtt_s > 0. then acc +. (Reno.cwnd q /. rtt_s) else acc)
      0. all
  in
  let rtt_s = srtt_s s in
  if denom <= 0. || rtt_s <= 0. then 1. /. cwnd
  else begin
    let base = cwnd /. (rtt_s *. rtt_s) /. (denom *. denom) in
    let extra = alpha_for all s /. cwnd in
    base +. extra
  end

let ops =
  let reno = Reno.ops ~name:"olia" ~increase ~backoff:Reno.halving in
  {
    reno with
    Cc.on_ack =
      (fun s ~ack ~newly_acked ~ce_count ->
        let p = Reno.ctx s in
        p.losses.since_loss <- p.losses.since_loss +. float_of_int newly_acked;
        reno.Cc.on_ack s ~ack ~newly_acked ~ce_count);
    on_fast_retransmit =
      (fun s ->
        on_loss (Reno.ctx s);
        reno.Cc.on_fast_retransmit s);
    on_timeout =
      (fun s ->
        on_loss (Reno.ctx s);
        reno.Cc.on_timeout s);
  }

let coupling () =
  Coupling.custom ~name:"olia"
    ~fresh:(fun () -> { paths = [] })
    (fun flow view ->
      let s =
        Reno.init
          { flow; losses = { since_loss = 0.; between_losses = 0. } }
          view
      in
      flow.paths <- flow.paths @ [ s ];
      Cc.Cc (ops, s))
