(** Fat-tree evaluation driver (§5.2): builds the fabric ({!Setup}),
    generates one of the paper's three traffic patterns, runs to the
    horizon, and returns collected metrics.

    Patterns (§5.2.1):
    - {b Permutation}: every host sends one flow to a random distinct host
      such that each host receives exactly one flow; when a whole wave
      completes, a new permutation starts. Uniform flow sizes.
    - {b Random}: every host keeps one outgoing flow alive to a random
      host (at most 4 flows per destination), with bounded-Pareto sizes.
    - {b Incast}: [jobs] concurrent jobs, each a 1-client/8-server
      request(2 KB)/response(64 KB) exchange over plain TCP, repeated
      forever; plus one Random-pattern large background flow per host
      whose endpoints never share a rack.

    Large flows use the configured scheme(s); incast request/response
    small flows always use plain TCP, as in the paper. *)

type assignment =
  | Uniform of Scheme.t
  | Split of Scheme.t * Scheme.t
      (** coexistence: even-indexed hosts originate the first scheme,
          odd-indexed the second (Table 2). *)

type pattern =
  | Permutation of { min_segments : int; max_segments : int }
  | Random_pattern of {
      mean_segments : float;
      cap_segments : float;
      shape : float;
      max_inbound : int;
    }
  | Incast of {
      jobs : int;
      fanout : int;  (** servers per job; paper: 8 *)
      request_segments : int;
      response_segments : int;
      bg_mean_segments : float;
          (** mean background flow size; ≤ 0 disables background flows
              entirely (a pure incast microbenchmark) *)
      bg_cap_segments : float;
      bg_shape : float;
    }
  | Incast_sweep of {
      jobs : int;  (** concurrent request/response chains *)
      fanouts : int list;
          (** each chain cycles through this fanout list *)
      request_segments : int;
      response_segments : int;
    }
  | All_to_all of { segments : int }
      (** every host sends [segments] to every other host; the next
          shuffle wave starts when the whole wave completes *)

type config = {
  fabric : Xmp_net.Fabric.t;  (** built whole on one shard *)
  seed : int;
  cross_dc : float;
      (** on a bridged fabric, the fraction of randomly chosen
          destinations drawn from the other DC (Random-pattern and
          incast-background candidate draws) when positive; at 0 every
          candidate is drawn uniformly over all hosts, as on a fat tree,
          so about half cross the trunk (ROADMAP item 4 makes 0 mean
          DC-local). Ignored on a fat tree. Derangement-based patterns
          (Permutation, All_to_all) always mix globally. *)
  horizon : Xmp_engine.Time.t;
  queue_pkts : int;
  marking_threshold : int;  (** switch K *)
  beta : int;  (** XMP reduction divisor *)
  rto_min : Xmp_engine.Time.t;
  sack : bool;  (** selective acknowledgements on every flow *)
  assignment : assignment;
  pattern : pattern;
  faults : Xmp_engine.Fault_spec.t;
      (** fault schedule armed against the fabric before traffic starts;
          {!Xmp_engine.Fault_spec.empty} (the default) injects nothing *)
  telemetry : Xmp_telemetry.Sink.t;
      (** sink handed to the simulator, so fault transitions and injected
          drops are observable; {!Xmp_telemetry.Sink.null} by default *)
}

val default_config : config
(** A k = 4 fat tree, seed 1, 2 s horizon, 100-packet queues, K = 10,
    β = 4, RTOmin 200 ms, XMP-2 Permutation with the ×1/32-scaled paper
    sizes, per-flow records kept, no faults, null telemetry sink, no
    cross-DC bias. *)

val incast_scaled : pattern
(** 2 KB requests / 64 KB responses exactly as the paper; 3 concurrent
    jobs (scaled from 8 for the k = 4 topology) over scaled Random
    background flows. *)

type result = {
  metrics : Metrics.t;
  net : Xmp_net.Network.t;
  config : config;
  events : int;
  injector : Xmp_faults.Injector.t;
      (** the armed fault schedule: its drop and link-transition counts *)
}

val run : config -> result

val utilization_by_layer : result -> (string * Xmp_stats.Distribution.t) list
(** Figure 11 data for this run; bridged runs include the ["wan"] and
    ["border"] layers. *)
