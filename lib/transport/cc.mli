(** Pluggable congestion-control interface.

    A controller is one state record driven by a statically allocated
    {!ops} table: [Cc (ops, state)]. Every instance of a scheme shares
    its [ops] (built once, at module initialisation), so an instance
    costs its state record and the three-word {!t} pair — no closures.
    The controller owns [cwnd] (in segments) and reacts to the events the
    connection machinery reports; the connection reads the window
    through {!cwnd} before sending.

    Controllers that need connection state (sequence numbers for round
    tracking, smoothed RTT) read a {!view}: plain fields that the
    connection keeps current, handed to the controller at construction
    time. *)

type view = {
  mutable snd_una : int;  (** highest unacknowledged segment *)
  mutable snd_nxt : int;
      (** next new segment: the send high-water mark, which does not
          regress when a timeout rolls retransmission back *)
  mutable srtt : Xmp_engine.Time.t;  (** smoothed RTT *)
  mutable min_rtt : Xmp_engine.Time.t;  (** smallest RTT sample *)
  now : unit -> Xmp_engine.Time.t;
      (** the simulator clock (one closure per sim, {!Xmp_engine.Sim.clock}) *)
  telemetry : Xmp_telemetry.Sink.scope;
      (** the connection's telemetry sink, pre-bound to this subflow's
          [flow]/[subflow] identity, so controllers can emit cwnd-change /
          TraSh-delta events without knowing transport internals.
          Hand-built views use [Xmp_telemetry.Sink.unscoped]. *)
}

val view :
  ?telemetry:Xmp_telemetry.Sink.scope ->
  ?srtt:Xmp_engine.Time.t ->
  ?min_rtt:Xmp_engine.Time.t ->
  now:(unit -> Xmp_engine.Time.t) ->
  unit ->
  view
(** A view at sequence 0. [srtt] and [min_rtt] default to the values a
    connection reports before its first RTT sample (200 ms and
    [Time.infinity]); [telemetry] defaults to [Sink.unscoped]. *)

type window = {
  mutable cwnd : float;
      (** the congestion window in segments; the connection sends while
          flight-size < ⌊cwnd⌋ (at least 1) *)
  mutable ssthresh : float;  (** the slow-start threshold, segments *)
}
(** The floats every window body keeps. A record of floats alone is
    stored flat, so neither a write nor a read straight off the record
    allocates: a connection reads [cwnd] through {!window} before every
    send. *)

type 's ops = {
  name : string;
  view : 's -> view;  (** the view the controller was built with *)
  window : 's -> window;  (** the controller's window *)
  on_ack : 's -> ack:int -> newly_acked:int -> ce_count:int -> unit;
      (** a cumulative ACK advanced [snd_una] by [newly_acked] segments;
          [ce_count] CE echoes rode on it. *)
  on_ecn : 's -> count:int -> unit;
      (** an ACK (including a duplicate) carried [count ≥ 1] CE echoes.
          Called before [on_ack] for the same ACK. *)
  on_fast_retransmit : 's -> unit;
      (** third duplicate ACK: a loss was repaired by fast retransmit. *)
  on_timeout : 's -> unit;  (** retransmission timeout fired. *)
  in_slow_start : 's -> bool;
  take_cwr : 's -> bool;
      (** classic-ECN support: [true] exactly once after an ECN-triggered
          reduction, telling the sender to set CWR on its next data
          packet. Controllers that repurpose CWR (XMP) always return
          [false]. *)
}
(** The code of one controller family over its state type ['s]. *)

type t = Cc : 's ops * 's -> t  (** a controller instance *)

type factory = view -> t
(** How connections are given their controller. *)

val name : t -> string

val view_of : t -> view
(** The controller's view: a coupling group reads its members' RTTs
    through it. *)

val window : t -> window

val cwnd : t -> float
(** [(window c).cwnd]; boxed when called, so hot paths read the field
    of {!window} in place. *)

val on_ack : t -> ack:int -> newly_acked:int -> ce_count:int -> unit
val on_ecn : t -> count:int -> unit
val on_fast_retransmit : t -> unit
val on_timeout : t -> unit
val in_slow_start : t -> bool
val take_cwr : t -> bool

val nop_take_cwr : 's -> bool
(** Always [false]; for controllers without classic ECN. *)
