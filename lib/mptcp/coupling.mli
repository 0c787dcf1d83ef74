(** Coupled congestion control across the subflows of one MPTCP flow.

    A coupling is built once per scheme configuration and instantiated
    once per flow ({!t.fresh}); each subflow's controller is then made
    with {!attach}, and its behaviour may depend on every sibling's state
    through the flow's member {!group}. A group holds each member's
    controller, which gives its connection view
    ({!Xmp_transport.Cc.view_of}); nothing here allocates a closure per
    flow or per subflow.

    Every coupled scheme is built the same way, with {!coupled}: a window
    body — {!Xmp_transport.Reno.ops} (loss; LIA, AMP, BALIA, MP-Veno)
    or {!Xmp_core.Bos} (XMP) — given a coupled increase or gain read off
    the group, and, for Reno, a loss cut. OLIA keeps its own per-flow
    path list ({!custom}). {!uncoupled} runs one single-path controller
    on every subflow. *)

type group
(** Mutable per-flow registry of members. *)

val group : unit -> group

val register : group -> Xmp_transport.Cc.t -> unit

val members : group -> Xmp_transport.Cc.t list
(** The members' controllers, in registration order. *)

val srtt_s : Xmp_transport.Cc.t -> float
(** The member's smoothed RTT, seconds. *)

val total_cwnd : group -> float

val total_rate : group -> float
(** [Σ cwnd_i / srtt_i], segments per second. *)

val max_rate : group -> float
(** [max_i cwnd_i / srtt_i], segments per second (0 when no member has a
    positive RTT yet); the best-path rate Balia's α ratio is taken
    against. *)

val min_srtt : group -> float
(** Smallest smoothed RTT across members, seconds. *)

type flow
(** One flow's instance of a coupling: its shared state (the group, or
    a scheme's own per-flow record) and the code that attaches
    subflows to it. *)

type t = {
  name : string;
  fresh : unit -> flow;  (** the per-flow instance *)
}

val attach : flow -> Xmp_transport.Cc.factory
(** A new subflow's controller, joined to the flow's shared state. *)

val uncoupled : name:string -> Xmp_transport.Cc.factory -> t
(** Runs the given controller independently on every subflow (the paper's
    "violates fairness" strawman; useful as an experimental control).
    Its flows share nothing, so [fresh] allocates nothing. *)

val coupled :
  name:string -> (group -> Xmp_transport.Cc.factory) -> t
(** [coupled ~name build]: [fresh ()] makes the flow's group; each
    subflow's controller is [build group view], registered as a group
    member — so registration order equals subflow order. [build] is
    applied in full per subflow, so a toplevel [build] allocates no
    closure. The controller's name is its ops' name: schemes name their
    ops [name]. *)

val custom :
  name:string -> fresh:(unit -> 'f) -> ('f -> Xmp_transport.Cc.factory) -> t
(** A coupling over a scheme's own per-flow state ['f] (OLIA's path
    list): [fresh ()] makes it once per flow and every subflow's
    controller is built against it. *)
