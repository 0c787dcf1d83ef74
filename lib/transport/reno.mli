(** TCP NewReno congestion control — the paper's "TCP" baseline and the
    window body of the five loss-based multipath schemes.

    Slow start doubles per RTT (+1 segment per ACK); congestion avoidance
    adds one segment per RTT (+1/cwnd per ACK); fast retransmit halves;
    timeout collapses to 1 segment. Optionally reacts to classic ECN
    echoes as it would to a fast retransmit (off by default: the paper's
    TCP/LIA flows are not ECN-capable). *)

type params = {
  init_cwnd : float;
  min_cwnd : float;
  ecn : bool;  (** respond to ECE like a loss, once per window *)
}

val default_params : params

val make : ?params:params -> Cc.factory

(** {1 The window body}

    Every loss-based multipath scheme (LIA, OLIA, AMP, BALIA and
    MP-Veno) runs this body: slow start, the once-per-window ECN gate
    and the timeout collapse are NewReno's. A scheme builds its {!ops}
    once, at module initialisation, and each subflow's controller is a
    {!state} carrying the scheme's per-subflow context ['c] (its
    coupling group, or OLIA's path record). *)

type 'c state

val ops :
  name:string ->
  increase:('c state -> cwnd:float -> float) ->
  backoff:('c state -> cwnd:float -> float) ->
  'c state Cc.ops
(** The scheme supplies, reading its context and view off the state:

    - [increase s ~cwnd], the congestion-avoidance increment
      applied per newly-acked segment (a coupled gain in place of
      [1/cwnd]);
    - [backoff s ~cwnd], the fraction of the window kept on a
      fast retransmit, or on an ECN echo when [params.ecn] is set
      ({!halving} for LIA, OLIA and AMP; BALIA's and MP-Veno's cuts
      depend on the path state). The new window is floored at
      [max min_cwnd 2] and becomes [ssthresh]. *)

val init : ?params:params -> 'c -> Cc.view -> 'c state
(** A fresh window at [params.init_cwnd] in slow start, with context
    ['c] ([params] defaults to {!default_params}). *)

val create : 'c state Cc.ops -> ?params:params -> 'c -> Cc.factory
(** [Cc (ops, init ?params ctx view)]. *)

val halving : 'c state -> cwnd:float -> float
(** The classic backoff: keep half the window (0.5). *)

val cwnd : 'c state -> float
val ctx : 'c state -> 'c
val view : 'c state -> Cc.view
