type params = {
  g : float;
  init_alpha : float;
  init_cwnd : float;
  min_cwnd : float;
}

let default_params =
  { g = 1. /. 16.; init_alpha = 1.; init_cwnd = 3.; min_cwnd = 1. }

(* α alone in a record: a record of floats is stored flat, so its
   once-a-window update allocates no box *)
type estimate = { mutable alpha : float }

type state = {
  params : params;
  view : Cc.view;
  win : Cc.window;
  est : estimate;
  mutable window_end : int;  (* alpha update boundary (snd_nxt snapshot) *)
  mutable acked_in_window : int;
  mutable marked_in_window : int;
  mutable reduced_this_window : bool;
}

let in_slow_start s = s.win.Cc.cwnd < s.win.Cc.ssthresh

let on_ack s ~ack ~newly_acked ~ce_count =
  s.acked_in_window <- s.acked_in_window + newly_acked;
  s.marked_in_window <- s.marked_in_window + ce_count;
  if ack > s.window_end then begin
    (* one observation window (≈ one RTT of data) completed *)
    if s.acked_in_window > 0 then begin
      let f =
        float_of_int s.marked_in_window /. float_of_int s.acked_in_window
      in
      s.est.alpha <-
        ((1. -. s.params.g) *. s.est.alpha) +. (s.params.g *. Float.min 1. f)
    end;
    s.acked_in_window <- 0;
    s.marked_in_window <- 0;
    s.reduced_this_window <- false;
    s.window_end <- s.view.Cc.snd_nxt
  end;
  for _ = 1 to newly_acked do
    if in_slow_start s then s.win.Cc.cwnd <- s.win.Cc.cwnd +. 1.
    else s.win.Cc.cwnd <- s.win.Cc.cwnd +. (1. /. s.win.Cc.cwnd)
  done

let on_ecn s ~count:_ =
  let was_slow_start = in_slow_start s in
  if not s.reduced_this_window then begin
    s.reduced_this_window <- true;
    s.win.Cc.cwnd <-
      Float.max s.params.min_cwnd (s.win.Cc.cwnd *. (1. -. (s.est.alpha /. 2.)))
  end;
  (* leave (and do not re-enter) slow start on a congestion signal *)
  if was_slow_start then
    s.win.Cc.ssthresh <- Float.max s.params.min_cwnd s.win.Cc.cwnd

let on_fast_retransmit s =
  s.win.Cc.ssthresh <- Float.max (s.win.Cc.cwnd /. 2.) 2.;
  s.win.Cc.cwnd <- s.win.Cc.ssthresh

let on_timeout s =
  s.win.Cc.ssthresh <- Float.max (s.win.Cc.cwnd /. 2.) 2.;
  s.win.Cc.cwnd <- Float.max s.params.min_cwnd 1.

let ops =
  {
    Cc.name = "dctcp";
    view = (fun s -> s.view);
    window = (fun s -> s.win);
    on_ack;
    on_ecn;
    on_fast_retransmit;
    on_timeout;
    in_slow_start;
    take_cwr = Cc.nop_take_cwr;
  }

let make ?(params = default_params) view =
  Cc.Cc
    ( ops,
      {
        params;
        view;
        win = { Cc.cwnd = params.init_cwnd; ssthresh = Float.max_float };
        est = { alpha = params.init_alpha };
        window_end = 0;
        acked_in_window = 0;
        marked_in_window = 0;
        reduced_this_window = false;
      } )
