(** Buffer Occupancy Suppression — XMP's single-path congestion avoidance
    (§2.1 and Algorithm 1).

    Switches mark arriving packets with CE once the instantaneous queue
    exceeds K; the receiver echoes every CE (up to 3 per ACK via the 2-bit
    ECE/CWR encoding). The sender:

    - {b slow start}: +1 segment per clean ACK; the first congestion echo
      sets [ssthresh ← cwnd − 1] and drops it into congestion avoidance;
    - {b congestion avoidance}: on each round end (an ACK passing the
      [beg_seq] snapshot of Figure 2), [adder ← adder + δ] and the window
      grows by [⌊adder⌋];
    - {b reduction}: on the first congestion echo of a round,
      [cwnd ← max(cwnd − max(cwnd/β, 1), 2)], then the NORMAL→REDUCED
      state machine ([cwr_seq]) suppresses further reductions until every
      ACK of the pre-reduction window has returned.

    The gain [δ] is read once per round end, which is how the TraSh
    coupling retunes it; the single-path default is the constant 1
    (plain BOS). *)

type params = {
  beta : int;  (** reduction divisor; paper default 4 *)
  init_cwnd : float;
  min_cwnd : float;  (** floor after reductions; the paper uses 2 *)
}

val default_params : params

val make :
  ?params:params ->
  ?delta:(unit -> float) ->
  ?on_round:(unit -> unit) ->
  unit ->
  Xmp_transport.Cc.factory
(** Plain single-path BOS. [delta] is sampled once per round end
    (default: constant 1); [on_round] fires after the round bookkeeping.
    Raises [Invalid_argument] if [params.beta < 2]. *)

(** {1 The window body}

    A family of BOS controllers is one {!ops} table, built once; each
    controller is a {!state} carrying the family's per-subflow context
    ['c] (TraSh's coupling group). *)

type 'c state

val ops :
  name:string ->
  delta:('c state -> float) ->
  on_round:('c state -> unit) ->
  'c state Xmp_transport.Cc.ops
(** [delta s] is the additive-increase gain added to [adder] at each
    congestion-avoidance round end; [on_round s] runs after every round
    end's bookkeeping. *)

val create :
  'c state Xmp_transport.Cc.ops ->
  ?params:params ->
  'c ->
  Xmp_transport.Cc.factory
(** Raises [Invalid_argument] if [params.beta < 2]. *)

val cwnd : 'c state -> float
val ctx : 'c state -> 'c
val view : 'c state -> Xmp_transport.Cc.view
