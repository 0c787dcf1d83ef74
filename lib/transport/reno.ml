type params = { init_cwnd : float; min_cwnd : float; ecn : bool }

let default_params = { init_cwnd = 3.; min_cwnd = 1.; ecn = false }

type 'c state = {
  params : params;
  view : Cc.view;
  ctx : 'c;
  win : Cc.window;
  mutable cwr_pending : bool;
  mutable ecn_reduced_until : int;  (* ECN reductions gated to once/window *)
}

let cwnd s = s.win.Cc.cwnd
let ctx s = s.ctx
let view s = s.view
let in_slow_start s = s.win.Cc.cwnd < s.win.Cc.ssthresh

let halving _ ~cwnd:_ = 0.5

(* keep [backoff ~cwnd] of the window and leave slow start there *)
let cut s backoff =
  s.win.Cc.ssthresh <-
    Float.max
      (s.win.Cc.cwnd *. backoff s ~cwnd:s.win.Cc.cwnd)
      (Float.max s.params.min_cwnd 2.);
  s.win.Cc.cwnd <- s.win.Cc.ssthresh

let on_timeout s =
  s.win.Cc.ssthresh <- Float.max (s.win.Cc.cwnd /. 2.) 2.;
  s.win.Cc.cwnd <- Float.max s.params.min_cwnd 1.

let take_cwr s =
  if s.cwr_pending then begin
    s.cwr_pending <- false;
    true
  end
  else false

let ops ~name ~increase ~backoff =
  {
    Cc.name;
    view = (fun s -> s.view);
    window = (fun s -> s.win);
    on_ack =
      (fun s ~ack:_ ~newly_acked ~ce_count:_ ->
        for _ = 1 to newly_acked do
          if in_slow_start s then s.win.Cc.cwnd <- s.win.Cc.cwnd +. 1.
          else s.win.Cc.cwnd <- s.win.Cc.cwnd +. increase s ~cwnd:s.win.Cc.cwnd
        done);
    on_ecn =
      (fun s ~count:_ ->
        if s.params.ecn && s.view.Cc.snd_una >= s.ecn_reduced_until then begin
          cut s backoff;
          s.ecn_reduced_until <- s.view.Cc.snd_nxt;
          s.cwr_pending <- true
        end);
    on_fast_retransmit = (fun s -> cut s backoff);
    on_timeout;
    in_slow_start;
    take_cwr;
  }

let init ?(params = default_params) ctx view =
  {
    params;
    view;
    ctx;
    win = { Cc.cwnd = params.init_cwnd; ssthresh = Float.max_float };
    cwr_pending = false;
    ecn_reduced_until = 0;
  }

let create ops ?params ctx view = Cc.Cc (ops, init ?params ctx view)

let reno_ops =
  ops ~name:"reno" ~increase:(fun _ ~cwnd -> 1. /. cwnd) ~backoff:halving

let make ?params view = create reno_ops ?params () view
