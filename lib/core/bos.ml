module Cc = Xmp_transport.Cc
module Tel = Xmp_telemetry

type params = { beta : int; init_cwnd : float; min_cwnd : float }

let default_params = { beta = 4; init_cwnd = 3.; min_cwnd = 2. }

(* the fractional increase carried between rounds, alone in a record:
   a record of floats is stored flat, so its per-round update allocates
   no box *)
type carry = { mutable adder : float }

type 'c state = {
  params : params;
  view : Cc.view;
  ctx : 'c;
  win : Cc.window;
  carry : carry;
  mutable beg_seq : int;
  mutable cwr_seq : int;
      (* while a reduction holds (Algorithm 1's Reduced state): the
         [snd_nxt] it waits for the ACK of; -1 in the Normal state *)
}

let reduced s = s.cwr_seq >= 0

let cwnd s = s.win.Cc.cwnd
let ctx s = s.ctx
let view s = s.view
let in_slow_start s = s.win.Cc.cwnd <= s.win.Cc.ssthresh

(* one branch when the sink is disabled; called only after cwnd moved *)
let emit_cwnd s =
  let tel = s.view.Cc.telemetry in
  if Tel.Sink.active tel.Tel.Sink.sink then
    Tel.Sink.event tel.Tel.Sink.sink ~time_ns:(s.view.Cc.now ())
      (Tel.Event.Cwnd_change
         {
           flow = tel.Tel.Sink.flow;
           subflow = tel.Tel.Sink.subflow;
           cwnd = s.win.Cc.cwnd;
         })

let on_ecn s ~count:_ =
  if not (reduced s) then begin
    s.cwr_seq <- s.view.Cc.snd_nxt;
    if not (in_slow_start s) then begin
      let cut = Float.max (s.win.Cc.cwnd /. float_of_int s.params.beta) 1. in
      s.win.Cc.cwnd <- Float.max (s.win.Cc.cwnd -. cut) s.params.min_cwnd;
      emit_cwnd s
    end;
    (* leave (or stay out of) slow start without re-entering it *)
    s.win.Cc.ssthresh <- s.win.Cc.cwnd -. 1.
  end

let on_fast_retransmit s =
  s.win.Cc.cwnd <- Float.max (s.win.Cc.cwnd /. 2.) s.params.min_cwnd;
  s.win.Cc.ssthresh <- s.win.Cc.cwnd -. 1.;
  emit_cwnd s

let on_timeout s =
  s.win.Cc.ssthresh <- Float.max (s.win.Cc.cwnd /. 2.) s.params.min_cwnd;
  s.win.Cc.cwnd <- 1.;
  emit_cwnd s

let ops ~name ~delta ~on_round =
  {
    Cc.name;
    view = (fun s -> s.view);
    window = (fun s -> s.win);
    on_ack =
      (fun s ~ack ~newly_acked:_ ~ce_count:_ ->
        (* per-round operations (Algorithm 1) *)
        if ack > s.beg_seq then begin
          if (not (reduced s)) && not (in_slow_start s) then begin
            s.carry.adder <- s.carry.adder +. delta s;
            let whole = Float.of_int (int_of_float s.carry.adder) in
            s.win.Cc.cwnd <- s.win.Cc.cwnd +. whole;
            s.carry.adder <- s.carry.adder -. whole;
            if whole > 0. then emit_cwnd s
          end;
          s.beg_seq <- s.view.Cc.snd_nxt;
          on_round s
        end;
        (* per-ack operations *)
        if (not (reduced s)) && in_slow_start s then begin
          s.win.Cc.cwnd <- s.win.Cc.cwnd +. 1.;
          emit_cwnd s
        end;
        if reduced s && ack >= s.cwr_seq then s.cwr_seq <- -1);
    on_ecn;
    on_fast_retransmit;
    on_timeout;
    in_slow_start;
    take_cwr = Cc.nop_take_cwr;
  }

let create ops ?(params = default_params) ctx view =
  if params.beta < 2 then invalid_arg "Bos.make: beta must be >= 2";
  Cc.Cc
    ( ops,
      {
        params;
        view;
        ctx;
        win = { Cc.cwnd = params.init_cwnd; ssthresh = Float.max_float };
        carry = { adder = 0. };
        beg_seq = 0;
        cwr_seq = -1;
      } )

(* plain BOS: the gain and the round hook come from the caller *)
type hooks = { delta : unit -> float; on_round : unit -> unit }

let bos_ops =
  ops ~name:"bos"
    ~delta:(fun s -> s.ctx.delta ())
    ~on_round:(fun s -> s.ctx.on_round ())

let make ?params ?(delta = fun () -> 1.) ?(on_round = fun () -> ()) () view =
  create bos_ops ?params { delta; on_round } view
