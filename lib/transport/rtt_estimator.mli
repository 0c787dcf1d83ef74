(** RTT estimation and retransmission timeout per RFC 6298, with the
    configurable RTO floor that drives the paper's incast results
    (RTOmin = 200 ms).

    The estimator has no record of its own: a {!Tcp} connection keeps
    [srtt] and [min_rtt] in its controller's {!Cc.view} (which the
    controller reads anyway), and [rttvar] and the backoff exponent in
    its own fields; the bounds are its config's. These functions are the
    one implementation of the rules over that state. *)

val initial_srtt : Xmp_engine.Time.t
(** 200 ms, the smoothed RTT before any sample. *)

val initial_rttvar : Xmp_engine.Time.t
(** 100 ms, the RTT variation before any sample. *)

val sample : Cc.view -> rttvar:Xmp_engine.Time.t -> Xmp_engine.Time.t ->
  Xmp_engine.Time.t
(** [sample view ~rttvar rtt] feeds one RTT measurement: it updates
    [view.srtt] and [view.min_rtt] in place and returns the new rttvar.
    The first sample is the one that finds [view.min_rtt] infinite: it
    sets [srtt = rtt] and [rttvar = rtt / 2]; later ones smooth with
    RFC 6298's gains ([srtt = (7 srtt + rtt) / 8],
    [rttvar = (3 rttvar + |srtt - rtt|) / 4] with the srtt from before
    the sample). Allocates nothing. Raises [Invalid_argument] on a
    negative [rtt]. *)

val timeout :
  rto_min:Xmp_engine.Time.t ->
  rto_max:Xmp_engine.Time.t ->
  granularity:Xmp_engine.Time.t ->
  srtt:Xmp_engine.Time.t ->
  rttvar:Xmp_engine.Time.t ->
  backoff:int ->
  Xmp_engine.Time.t
(** [clamp (srtt + max (granularity, 4 * rttvar))] into
    [[rto_min, rto_max]], doubled [backoff] times and capped at
    [rto_max]. [granularity] is the clock term [G] in RFC 6298's
    [RTO = SRTT + max (G, 4 * RTTVAR)]: it keeps the timeout strictly
    above srtt even once rttvar has decayed on a steady path, which
    matters as soon as [rto_min] drops below the delayed-ACK hold. *)
