module Reno = Xmp_transport.Reno
module Cc = Xmp_transport.Cc

type path_state = {
  member : Coupling.member;
  mutable since_loss : float;  (* segments acked since the last loss *)
  mutable between_losses : float;  (* segments between the last two *)
}

let interloss p = Float.max p.since_loss p.between_losses

let epsilon = 1e-9

(* alpha_r for path [me] given all paths of the flow *)
let alpha_for paths me =
  let n = List.length paths in
  if n <= 1 then 0.
  else begin
    let quality p =
      let rtt_s = p.member.Coupling.srtt_s () in
      if rtt_s > 0. then interloss p *. interloss p /. rtt_s else 0.
    in
    let best_q = List.fold_left (fun acc p -> Float.max acc (quality p)) 0. paths in
    let max_w =
      List.fold_left
        (fun acc p -> Float.max acc (p.member.Coupling.cwnd ()))
        0. paths
    in
    let is_best p = quality p >= best_q -. epsilon in
    let is_collected p = p.member.Coupling.cwnd () >= max_w -. epsilon in
    let best_not_collected =
      List.filter (fun p -> is_best p && not (is_collected p)) paths
    in
    let collected = List.filter is_collected paths in
    if best_not_collected = [] then 0.
    else if is_best me && not (is_collected me) then
      1. /. (float_of_int n *. float_of_int (List.length best_not_collected))
    else if is_collected me then
      -1. /. (float_of_int n *. float_of_int (List.length collected))
    else 0.
  end

let on_loss p =
  p.between_losses <- p.since_loss;
  p.since_loss <- 0.

let coupling ?(params = Reno.default_params) () =
  Coupling.coupled ~name:"olia" (fun _g ->
      let paths = ref [] in
      fun view ->
        let me = ref None in
        let increase ~cwnd =
          match !me with
          | None -> 1. /. cwnd
          | Some p ->
            let all = !paths in
            let denom =
              List.fold_left
                (fun acc q ->
                  let rtt_s = q.member.Coupling.srtt_s () in
                  if rtt_s > 0. then acc +. (q.member.Coupling.cwnd () /. rtt_s)
                  else acc)
                0. all
            in
            let rtt_s = p.member.Coupling.srtt_s () in
            if denom <= 0. || rtt_s <= 0. then 1. /. cwnd
            else begin
              let base = cwnd /. (rtt_s *. rtt_s) /. (denom *. denom) in
              let extra = alpha_for all p /. cwnd in
              base +. extra
            end
        in
        let cc =
          Reno.make_with_increase ~params ~increase ~backoff:Reno.halving ()
            view
        in
        let p =
          {
            member = Coupling.member_of view cc;
            since_loss = 0.;
            between_losses = 0.;
          }
        in
        me := Some p;
        paths := !paths @ [ p ];
        {
          cc with
          Cc.on_ack =
            (fun ~ack ~newly_acked ~ce_count ->
              p.since_loss <- p.since_loss +. float_of_int newly_acked;
              cc.Cc.on_ack ~ack ~newly_acked ~ce_count);
          on_fast_retransmit =
            (fun () ->
              on_loss p;
              cc.Cc.on_fast_retransmit ());
          on_timeout =
            (fun () ->
              on_loss p;
              cc.Cc.on_timeout ());
        })
