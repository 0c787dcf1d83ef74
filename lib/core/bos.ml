module Cc = Xmp_transport.Cc
module Tel = Xmp_telemetry

type params = { beta : int; init_cwnd : float; min_cwnd : float }

let default_params = { beta = 4; init_cwnd = 3.; min_cwnd = 2. }

type reduction_state = Normal | Reduced

type 'c state = {
  params : params;
  view : Cc.view;
  ctx : 'c;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable adder : float;
  mutable beg_seq : int;
  mutable cwr_seq : int;
  mutable reduction : reduction_state;
}

let cwnd s = s.cwnd
let ctx s = s.ctx
let view s = s.view
let in_slow_start s = s.cwnd <= s.ssthresh

(* one branch when the sink is disabled; called only after cwnd moved *)
let emit_cwnd s =
  let tel = s.view.Cc.telemetry in
  if Tel.Sink.active tel.Tel.Sink.sink then
    Tel.Sink.event tel.Tel.Sink.sink ~time_ns:(s.view.Cc.now ())
      (Tel.Event.Cwnd_change
         {
           flow = tel.Tel.Sink.flow;
           subflow = tel.Tel.Sink.subflow;
           cwnd = s.cwnd;
         })

let on_ecn s ~count:_ =
  if s.reduction = Normal then begin
    s.reduction <- Reduced;
    s.cwr_seq <- s.view.Cc.snd_nxt;
    if not (in_slow_start s) then begin
      let cut = Float.max (s.cwnd /. float_of_int s.params.beta) 1. in
      s.cwnd <- Float.max (s.cwnd -. cut) s.params.min_cwnd;
      emit_cwnd s
    end;
    (* leave (or stay out of) slow start without re-entering it *)
    s.ssthresh <- s.cwnd -. 1.
  end

let on_fast_retransmit s =
  s.cwnd <- Float.max (s.cwnd /. 2.) s.params.min_cwnd;
  s.ssthresh <- s.cwnd -. 1.;
  emit_cwnd s

let on_timeout s =
  s.ssthresh <- Float.max (s.cwnd /. 2.) s.params.min_cwnd;
  s.cwnd <- 1.;
  emit_cwnd s

let ops ~name ~delta ~on_round =
  {
    Cc.name;
    cwnd;
    on_ack =
      (fun s ~ack ~newly_acked:_ ~ce_count:_ ->
        (* per-round operations (Algorithm 1) *)
        if ack > s.beg_seq then begin
          if s.reduction = Normal && not (in_slow_start s) then begin
            s.adder <- s.adder +. delta s;
            let whole = Float.of_int (int_of_float s.adder) in
            s.cwnd <- s.cwnd +. whole;
            s.adder <- s.adder -. whole;
            if whole > 0. then emit_cwnd s
          end;
          s.beg_seq <- s.view.Cc.snd_nxt;
          on_round s
        end;
        (* per-ack operations *)
        if s.reduction = Normal && in_slow_start s then begin
          s.cwnd <- s.cwnd +. 1.;
          emit_cwnd s
        end;
        if s.reduction <> Normal && ack >= s.cwr_seq then
          s.reduction <- Normal);
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
        cwnd = params.init_cwnd;
        ssthresh = Float.max_float;
        adder = 0.;
        beg_seq = 0;
        cwr_seq = 0;
        reduction = Normal;
      } )

(* plain BOS: the gain and the round hook come from the caller *)
type hooks = { delta : unit -> float; on_round : unit -> unit }

let bos_ops =
  ops ~name:"bos"
    ~delta:(fun s -> s.ctx.delta ())
    ~on_round:(fun s -> s.ctx.on_round ())

let make ?params ?(delta = fun () -> 1.) ?(on_round = fun () -> ()) () view =
  create bos_ops ?params { delta; on_round } view
