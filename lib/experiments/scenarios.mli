(** The paper's figures, tables and ablation sweeps as registered
    {!Xmp_runner.Scenario} values.

    This is the single source of truth for what "the evaluation" is:
    [xmp_sim run] and the golden-output regression tests both select
    from this registry instead of hard-wiring experiment calls. A testbed
    figure is a heading over its paper panels, each a {!Run_spec.testbed},
    and its key is those specs' canonical strings. A base view (the
    tables, figs 8–11 and the sweeps over one fat-tree base) is keyed by
    {!Run_spec.base_to_string}. Every key is the canonical text of every
    input the output depends on, which gives each scenario a stable
    content digest for the runner's result cache. *)

type config = {
  tag : string;  (** "quick" | "default" | "paper" — for display only *)
  scale : float;  (** time-scale factor of the testbed figure schedules *)
  base : Run_spec.base;  (** fat-tree configuration for tables/CDFs *)
}

val default : config
(** The default scale: 0.2× schedules, [Run_spec.default_base]. *)

val quick : config
(** [--quick]: 0.1× schedules, 0.5 s fat-tree horizon. *)

val paper : config
(** [--paper-scale]: 1.0× schedules, [Run_spec.paper_scale_base]. *)

val all : config -> Xmp_runner.Scenario.t list
(** Every registered scenario, in canonical (paper) order: fig1, fig4,
    fig6, fig7, table1, fig8–fig11, table2, table3, then the
    [ablations.*] sweeps. *)

val select :
  config -> string list -> (Xmp_runner.Scenario.t list, string) result
(** Resolves scenario names and group aliases, preserving request order
    and dropping duplicates. A base view may be followed by a base in
    {!Run_spec.base_to_string}'s form (["table1 ft:8 horizon=4s"]); that
    scenario is named by the id's text and ignores [config]. [Error] is a
    message naming the unknown id or the offending field. *)

val golden : unit -> Xmp_runner.Scenario.t list
(** The golden-regression set: fig1/fig4/fig6/fig7, the K and
    queue-occupancy ablations, wan.asym, wan.mixed, wl.incast.sweep and
    incast.lossy at [quick] scale — cheap enough for every [dune
    runtest], rich enough to fingerprint the whole
    engine/transport/mptcp/core stack and both workload drivers. *)
