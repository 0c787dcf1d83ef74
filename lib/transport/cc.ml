module Time = Xmp_engine.Time

type view = {
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable srtt : Time.t;
  mutable min_rtt : Time.t;
  now : unit -> Time.t;
  telemetry : Xmp_telemetry.Sink.scope;
}

let view ?(telemetry = Xmp_telemetry.Sink.unscoped) ?(srtt = Time.ms 200)
    ?(min_rtt = Time.infinity) ~now () =
  { snd_una = 0; snd_nxt = 0; srtt; min_rtt; now; telemetry }

type window = { mutable cwnd : float; mutable ssthresh : float }

type 's ops = {
  name : string;
  view : 's -> view;
  window : 's -> window;
  on_ack : 's -> ack:int -> newly_acked:int -> ce_count:int -> unit;
  on_ecn : 's -> count:int -> unit;
  on_fast_retransmit : 's -> unit;
  on_timeout : 's -> unit;
  in_slow_start : 's -> bool;
  take_cwr : 's -> bool;
}

type t = Cc : 's ops * 's -> t
type factory = view -> t

let name (Cc (o, _)) = o.name
let view_of (Cc (o, s)) = o.view s
let window (Cc (o, s)) = o.window s
let cwnd c = (window c).cwnd

let on_ack (Cc (o, s)) ~ack ~newly_acked ~ce_count =
  o.on_ack s ~ack ~newly_acked ~ce_count

let on_ecn (Cc (o, s)) ~count = o.on_ecn s ~count
let on_fast_retransmit (Cc (o, s)) = o.on_fast_retransmit s
let on_timeout (Cc (o, s)) = o.on_timeout s
let in_slow_start (Cc (o, s)) = o.in_slow_start s
let take_cwr (Cc (o, s)) = o.take_cwr s
let nop_take_cwr _ = false
