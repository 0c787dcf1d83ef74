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

val halving : cwnd:float -> float
(** The classic backoff: keep half the window (0.5). *)

val make_with_increase :
  ?params:params ->
  increase:(cwnd:float -> float) ->
  backoff:(cwnd:float -> float) ->
  unit ->
  Cc.factory
(** The NewReno body every loss-based multipath scheme runs on (LIA,
    OLIA, AMP, BALIA and MP-Veno): slow start, the once-per-window ECN
    gate and the timeout collapse are NewReno's; the scheme supplies

    - [increase ~cwnd], the congestion-avoidance increment applied per
      newly-acked segment (a coupled gain in place of [1/cwnd]);
    - [backoff ~cwnd], the fraction of the window kept on a fast
      retransmit, or on an ECN echo when [params.ecn] is set
      ({!halving} for LIA, OLIA and AMP; BALIA's and MP-Veno's cuts
      depend on the path state). The new window is floored at
      [max min_cwnd 2] and becomes [ssthresh]. *)
