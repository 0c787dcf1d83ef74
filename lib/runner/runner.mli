(** Parallel scenario execution with a digest-keyed result cache.

    Scenarios are independent seeded simulations sharing no mutable
    state, so the runner executes them across [jobs] forked worker
    processes (a pipe-based work queue gives dynamic load balancing) and
    memoizes each completed scenario's rendered output on disk under its
    content digest. Results are delivered in input-list order no matter
    which worker finishes first, so output is deterministic for any
    [jobs]; a warm cache reproduces the exact same bytes without
    simulating anything.

    Scenario payloads go to stdout (via {!run_and_print}); the runner's
    own progress and cache statistics go to stderr, keeping stdout
    byte-stable across cold, warm, sequential and parallel runs. *)

type cache_mode =
  | No_cache  (** always simulate; the cache is neither read nor written *)
  | Cache_dir of string

type outcome = {
  scenario : Scenario.t;
  digest : string;
  output : string;  (** the bytes the scenario printed to stdout *)
  from_cache : bool;
  elapsed_s : float;  (** simulation wall time; 0 on a cache hit *)
  events : int;
      (** simulation events the scenario executed (process-wide counter
          delta in the worker); 0 on a cache hit *)
}

type stats = {
  hits : int;  (** scenarios served from the cache *)
  misses : int;  (** scenarios that had to simulate *)
  wall_s : float;
}

val capture : (unit -> unit) -> string
(** [capture f] runs [f] in-process with stdout redirected (at the file
    descriptor level, so [Printf.printf] and friends are caught) and
    returns exactly the bytes it printed. stdout is restored afterwards,
    also on exception. *)

val run :
  ?jobs:int ->
  ?cache:cache_mode ->
  ?progress:bool ->
  ?on_outcome:(outcome -> unit) ->
  Scenario.t list ->
  outcome list * stats
(** Executes every scenario, returning outcomes in input order.

    [jobs] (default 1, values < 1 clamped to 1) is the number of worker
    processes; cache probing, cache writes and [on_outcome] all happen in
    the parent, which is the cache's single writer. [on_outcome] is
    called once per scenario, in input order, as soon as that scenario
    and all its predecessors have completed — i.e. ordered streaming.
    [progress] (default [true]) prints per-scenario progress lines and a
    final cache-statistics line to stderr.

    A worker that dies or a scenario that raises aborts the whole run
    with [Failure] after the remaining children are reaped; the message
    names the scenario and either the exception it raised or how its
    worker ended (["scenario NAME: worker killed by signal 9"]). *)

val run_and_print :
  ?jobs:int ->
  ?cache:cache_mode ->
  Scenario.t list ->
  stats
(** {!run} with progress lines on stderr and [on_outcome] printing each
    scenario's bytes to stdout — the streaming equivalent of running the
    scenarios sequentially in one process. *)
