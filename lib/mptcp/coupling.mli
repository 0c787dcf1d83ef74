(** Coupled congestion control across the subflows of one MPTCP flow.

    A coupling is instantiated once per flow ({!fresh}); the resulting
    closure hands each subflow a {!Xmp_transport.Cc} factory whose
    behaviour may depend on every sibling's state through the flow's
    member {!group}.

    Every coupled scheme is built the same way, with {!coupled}: a window
    body — {!Xmp_transport.Reno.make_with_increase} (loss; LIA, OLIA,
    AMP, BALIA, MP-Veno) or {!Xmp_core.Bos} (XMP) — given a coupled
    increase or gain read off the group, and, for Reno, a loss cut.
    {!uncoupled} runs one single-path controller on every subflow. *)

type member = {
  cwnd : unit -> float;  (** subflow congestion window, segments *)
  srtt_s : unit -> float;  (** smoothed RTT, seconds *)
  in_slow_start : unit -> bool;
}

type group
(** Mutable per-flow registry of members. *)

val group : unit -> group

val register : group -> member -> unit

val members : group -> member list
(** In registration order. *)

val member_of : Xmp_transport.Cc.view -> Xmp_transport.Cc.t -> member
(** A subflow's member: window and slow-start state from the controller,
    smoothed RTT from the connection view. *)

val total_cwnd : group -> float

val total_rate : group -> float
(** [Σ cwnd_i / srtt_i], segments per second. *)

val max_rate : group -> float
(** [max_i cwnd_i / srtt_i], segments per second (0 when no member has a
    positive RTT yet); the best-path rate Balia's α ratio is taken
    against. *)

val min_srtt : group -> float
(** Smallest smoothed RTT across members, seconds. *)

type t = {
  name : string;
  fresh : unit -> int -> Xmp_transport.Cc.factory;
      (** [fresh ()] creates the per-flow group; applying the result to a
          subflow index yields that subflow's controller factory. *)
}

val uncoupled : name:string -> Xmp_transport.Cc.factory -> t
(** Runs the given controller independently on every subflow (the paper's
    "violates fairness" strawman; useful as an experimental control). *)

val coupled : name:string -> (group -> Xmp_transport.Cc.factory) -> t
(** [coupled ~name build]: [fresh ()] makes the flow's group and applies
    [build] to it once, so per-flow state (OLIA's path list) lives in
    that partial application. Each subflow's factory builds its
    controller, registers it as a group member ({!member_of}) — so
    registration order equals subflow order — and returns it renamed to
    [name]. *)
