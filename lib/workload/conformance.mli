(** Scheme-conformance rigs: every scheme's controller driven through
    canned ACK/ECN/loss/timeout episodes against hand-built
    {!Xmp_transport.Cc.view}s — no network, no simulator clock — so the
    test suite can assert the property matrix (windows stay ≥ 1 and
    finite, multiplicative decrease respects each scheme's β, slow start
    exits on the first congestion signal, coupled increase never beats
    uncoupled Reno) and pin byte-stable golden cwnd traces per
    (scheme, episode). *)

type step =
  | Ack of int  (** clean cumulative ACK for n segments on subflow 0 *)
  | Ce_ack of int  (** n segments acked, every one CE-marked *)
  | Fast_retransmit  (** third duplicate ACK on subflow 0 *)
  | Timeout  (** RTO fires on subflow 0 *)
  | Sibling_ack of int
      (** background clean ACK on subflow 1 (ignored for single-path
          schemes) *)

type episode = { ep_name : string; steps : step list }

val episodes : episode list
(** ramp, ca, ecn, loss-train, timeout, sibling — shared by every
    scheme so the matrix is square. *)

val schemes : Scheme.t list
(** The 8 conformance schemes: DCTCP, TCP, LIA-2, OLIA-2, XMP-2,
    BALIA-2, VENO-2, AMP-2. *)

type sub = {
  cc : Xmp_transport.Cc.t;
  view : Xmp_transport.Cc.view;
      (** hand-driven: [apply] moves its [snd_una]/[snd_nxt] *)
}

type rig = {
  scheme : Scheme.t;
  subs : sub array;  (** one per subflow, index 0 is the driven one *)
  now : Xmp_engine.Time.t ref;
}

val asym_episode : episode
(** The RTT-asymmetric episode ("rtt-asym"): mixed fast/slow-path ACK
    interleavings with a CE mark, a fast retransmit and a timeout on
    the fast subflow. Kept out of {!episodes} so the square matrix and
    the order-randomized fuzz are unchanged; drive it against
    {!make_asym_rig}. *)

val make_rig :
  ?srtt_of:(int -> Xmp_engine.Time.t) ->
  ?min_rtt_of:(int -> Xmp_engine.Time.t) ->
  Scheme.t ->
  rig
(** Fresh coupling instance with {!Scheme.default_overrides}; subflows
    are created in index order, so group registration order is the
    subflow order. [srtt_of] defaults to a fixed smoothed RTT of
    300 µs + i·150 µs on subflow [i], and [min_rtt_of] to a constant
    200 µs. *)

val make_asym_rig : Scheme.t -> rig
(** [make_rig] with a heterogeneous-RTT profile: a smoothed RTT of
    100 µs on subflow 0 and 20 ms on every sibling (the 200:1 intra-DC
    vs WAN-trunk ratio), and a minimum RTT of 4/5 of that, so
    backlog-sensitive rules see a standing queue on both path classes. *)

val apply : rig -> step -> unit

val cwnd : rig -> int -> float

val in_slow_start : rig -> int -> bool

val total_cwnd : rig -> float

type sample = {
  step_idx : int;  (** position within the episode *)
  step : step;
  cwnd0 : float;  (** subflow-0 window after the step *)
  total : float;  (** aggregate window after the step *)
  slow_start0 : bool;  (** subflow 0 still in slow start *)
}

val run_episode : rig -> episode -> sample list
(** Applies every step of [episode] to [rig] in order and returns one
    sample per step. The rig keeps its state, so successive calls
    concatenate episodes — run them in any order against one rig to
    check that safety properties are order-independent. *)

val render_all : unit -> string
(** Every (scheme, episode) cwnd trace plus the (scheme, rtt-asym) trace
    on {!make_asym_rig}, blank-line separated — the contents of
    [test/conformance.expected]. A trace has one line per step with the
    step label, subflow-0 window and aggregate window ([%.6g]). *)
