(** Fault injector: arms an {!Xmp_engine.Fault_spec} schedule against a
    live {!Xmp_net.Network}.

    [install] resolves every target eagerly (unknown link or tag names
    and host ids that are not hosts raise [Invalid_argument] at setup;
    [Run_spec] parses a spec's schedule by installing it on a scratch
    copy of the topology), schedules the timed transitions
    on the network's simulator, and attaches per-link drop filters for
    the loss models. Call it after the topology is built and before
    [Sim.run].

    Effects, by spec:
    - [Link_down]/[Link_up] call [Link.set_up] at the given time and emit
      a [Link_down]/[Link_up] telemetry event (down also clears the
      link's queue, as when a cable is pulled).
    - [Loss] installs a [Link.set_drop_filter] process that kills
      matching in-window packets at the link's ingress, counts them and
      emits [Injected_drop] events. One RNG and one Gilbert-Elliott
      channel per (spec, link), seeded from (schedule seed, spec index,
      link id) — independent of the simulation's main RNG, so loss
      realizations are reproducible across runs and [--jobs] widths.
    - [Blackout] toggles [Queue_disc.set_blackout] over the window: the
      queue refuses every arrival with normal drop accounting.
    - [Host_pause] takes every port of the host down for the window
      (with the corresponding link events); the node must be a host. *)

type t

val install : net:Xmp_net.Network.t -> Xmp_engine.Fault_spec.t -> t
(** An empty schedule installs nothing and costs nothing. Raises [Invalid_argument] on invalid specs or unresolvable
    targets. *)

val install_cluster : Xmp_net.Shard.t -> Xmp_engine.Fault_spec.t -> t array
(** One injector per shard, in shard order. Each shard arms, in spec
    order, the specs whose targets it holds: a [tag=] or all-link target
    on every shard that has such links, a [link=NAME] or [host=ID] target
    only on the shard whose network holds it (a WAN trunk direction lives
    in its source DC's shard). Raises [Invalid_argument] only when no
    shard holds a target. *)

val injected_drops : t -> int
(** Packets killed by loss filters so far (blackout drops are counted by
    the queue disciplines instead). *)

val link_downs : t -> int
(** Down-transitions performed (a [Host_pause] of an [n]-port host
    counts [n]). *)

val link_ups : t -> int
