type params = { init_cwnd : float; min_cwnd : float; ecn : bool }

let default_params = { init_cwnd = 3.; min_cwnd = 1.; ecn = false }

type state = {
  params : params;
  view : Cc.view;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable cwr_pending : bool;
  mutable ecn_reduced_until : int;  (* ECN reductions gated to once/window *)
}

let in_slow_start s = s.cwnd < s.ssthresh

let halving ~cwnd:_ = 0.5

(* keep [backoff ~cwnd] of the window and leave slow start there *)
let cut s backoff =
  s.ssthresh <-
    Float.max (s.cwnd *. backoff ~cwnd:s.cwnd) (Float.max s.params.min_cwnd 2.);
  s.cwnd <- s.ssthresh

let make_with_increase ?(params = default_params) ~increase ~backoff () view =
  let s =
    {
      params;
      view;
      cwnd = params.init_cwnd;
      ssthresh = Float.max_float;
      cwr_pending = false;
      ecn_reduced_until = 0;
    }
  in
  let on_ack ~ack:_ ~newly_acked ~ce_count:_ =
    for _ = 1 to newly_acked do
      if in_slow_start s then s.cwnd <- s.cwnd +. 1.
      else s.cwnd <- s.cwnd +. increase ~cwnd:s.cwnd
    done
  in
  let on_ecn ~count:_ =
    if s.params.ecn && s.view.Cc.snd_una () >= s.ecn_reduced_until then begin
      cut s backoff;
      s.ecn_reduced_until <- s.view.Cc.snd_nxt ();
      s.cwr_pending <- true
    end
  in
  let on_fast_retransmit () = cut s backoff in
  let on_timeout () =
    s.ssthresh <- Float.max (s.cwnd /. 2.) 2.;
    s.cwnd <- Float.max s.params.min_cwnd 1.
  in
  let take_cwr () =
    if s.cwr_pending then begin
      s.cwr_pending <- false;
      true
    end
    else false
  in
  {
    Cc.name = "reno+";
    cwnd = (fun () -> s.cwnd);
    on_ack;
    on_ecn;
    on_fast_retransmit;
    on_timeout;
    in_slow_start = (fun () -> in_slow_start s);
    take_cwr;
  }

let make ?(params = default_params) view =
  let cc =
    make_with_increase ~params ~increase:(fun ~cwnd -> 1. /. cwnd)
      ~backoff:halving () view
  in
  { cc with Cc.name = "reno" }
