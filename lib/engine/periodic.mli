(** Periodic callbacks on simulated time — the recurring "sample every
    interval" pattern used by rate probes and queue monitors. *)

val start :
  ?first_after:Time.t -> Sim.t -> interval:Time.t -> (unit -> unit) -> unit
(** [start sim ~interval f] runs [f] every [interval] from now on (first
    firing after [first_after] if given, else after one [interval]) for
    as long as the simulation runs; bound the run with
    [Sim.run ~until]. *)
