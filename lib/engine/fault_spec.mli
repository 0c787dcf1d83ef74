(** Declarative, deterministic fault schedules.

    A schedule is pure data — links are named by string, hosts by id — so
    that {!Sim.config} can carry one without the engine depending on the
    network layer. The mechanism that resolves targets against a concrete
    [Network.t] and arms simulator events is [Xmp_faults.Injector].

    Determinism: a schedule contributes its own [seed]; every random
    draw the injector makes is taken from a [Random.State] derived from
    [(seed, spec index, link id)], never from wall clock or from the
    simulation's main RNG, so fault outcomes are identical across runs,
    across [--jobs] widths and regardless of other traffic. *)

type target =
  | Link of string  (** one link, by its ["src->dst"] name *)
  | Tag of string  (** every link carrying this topology tag *)
  | All_links

type loss_model =
  | Bernoulli of float  (** i.i.d. drop probability per matching packet *)
  | Gilbert_elliott of {
      enter_bad : float;  (** P(good -> bad) per matching packet *)
      exit_bad : float;  (** P(bad -> good) per matching packet *)
      loss_good : float;  (** drop probability in the good state *)
      loss_bad : float;  (** drop probability in the bad state *)
    }  (** two-state bursty loss channel, advanced per matching packet *)

type packet_filter = Any_packet | Data_only | Ack_only

type window = { from_ns : Time.t; until_ns : Time.t }
(** Half-open activity interval [[from_ns, until_ns)]. *)

type spec =
  | Link_down of { target : target; at : Time.t }
  | Link_up of { target : target; at : Time.t }
  | Loss of {
      target : target;
      window : window;
      model : loss_model;
      filter : packet_filter;
    }
  | Blackout of { target : target; window : window }
      (** the target links' queues drop every arriving packet in-window *)
  | Host_pause of { host : int; window : window }
      (** takes every port of node [host] down for the window *)

type t = { seed : int; specs : spec list }

val empty : t
(** No faults; the default of [Sim.config.faults]. *)

val is_empty : t -> bool

val window : from_ns:Time.t -> until_ns:Time.t -> window

val create : ?seed:int -> spec list -> t
(** Validates (see {!validate}) and packs a schedule. [seed] defaults
    to 0. *)

val validate : t -> unit
(** Raises [Invalid_argument] on malformed specs: probabilities outside
    [[0, 1]], empty link/tag names, negative times, windows whose end is
    not after their start, negative host ids. *)

val spec_to_string : spec -> string
(** Canonical form, e.g. ["down@1000000000@link=e0.0->a0.0"] or
    ["loss@0..inf@tag=rack@bern=0.01@any"]. Round-trips through
    {!spec_of_string}; also the CLI [--fault] syntax. *)

val spec_of_string : string -> spec
(** Parses {!spec_to_string} output. Times additionally accept
    human-friendly ["1.5s"], ["250ms"], ["40us"] and ["inf"]; the filter
    field of [loss@...] may be omitted (defaults to [any]). Raises
    [Invalid_argument] on anything else. *)

val float_to_string : float -> string
(** The shortest decimal that reads back as the same float: how
    {!spec_to_string} prints probabilities, exactly. *)

val time_of_string : string -> Time.t
(** The time grammar of {!spec_of_string}: integer nanoseconds, ["inf"],
    or a non-negative decimal with an [s]/[ms]/[us] suffix. Raises
    [Invalid_argument] on anything else. *)
