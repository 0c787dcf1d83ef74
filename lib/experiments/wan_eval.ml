(* WAN / heterogeneous-RTT evaluation: the scenario family the paper
   never ran. Two k=4 fat trees joined by high-BDP border trunks
   (Xmp_net.Wan), driven open-loop (Open_loop.run) and closed-loop
   (Driver), both on a bridged Xmp_net.Fabric, measuring:

   - wan.asym  — per-subflow RTT asymmetry across two trunks of
     different delay: FCT slowdowns per scheme, TraSh's traffic
     shifting read off the per-layer utilization, and the sharded
     domains:1 ≡ domains:2 byte-equality cross-check.
   - wan.bdp   — Eq. 1 (K ≥ BDP/(β−1)) at WAN BDPs: the analytic K for
     10/40/100 ms trunks plus a goodput probe with the border queue
     marking at K_eq1 vs a starved K_eq1/16.
   - wan.mixed — mixed intra/inter-DC matrices: the cross-DC fraction
     knob swept at a fixed 40 ms trunk.

   RTO floors are sized per topology — max(1 ms, max zero-load RTT / 2)
   — through the run's rto_min field, never the historical 200 ms
   constant (which exceeds every trunk RTT here and would mask timeout
   behaviour entirely). *)

module Time = Xmp_engine.Time
module Scheme = Xmp_workload.Scheme
module Driver = Xmp_workload.Driver
module Metrics = Xmp_workload.Metrics
module Open_loop = Xmp_workload.Open_loop
module Flow_size = Xmp_workload.Flow_size
module Wan = Xmp_net.Wan
module Units = Xmp_net.Units
module Topology = Xmp_net.Topology
module Table = Xmp_stats.Table

let left = Wan.Fat_tree_dc { k = 4 }
let right = Wan.Fat_tree_dc { k = 4 }

(* Eq. 1 of the paper at a trunk's BDP: K >= BDP/(beta-1), with the BDP
   counted in 1500 B packets over the propagation round trip. *)
let bdp_packets ~rate ~delay =
  let rtt_s = float_of_int (2 * delay) /. 1e9 in
  int_of_float (Float.ceil (Units.bytes_per_sec rate *. rtt_s /. 1500.))

let eq1_k ~rate ~delay ~beta =
  int_of_float
    (Float.ceil
       (float_of_int (bdp_packets ~rate ~delay) /. float_of_int (beta - 1)))

(* ---- shared open-loop run ---- *)

let seed = 11

let wan_spec ~scale ~trunks ~cross_dc ~scheme =
  {
    (Run_spec.workload (Bridged { left; right; trunks }) scheme Run_spec.Websearch) with
    cross_dc;
    seed;
    load = 0.25;
    horizon = Time.of_float_s (0.4 *. scale);
    (* flows that cross a trunk need tens of trunk RTTs to finish *)
    drain =
      Time.add
        (Time.of_float_s scale)
        (Time.mul (Wan.max_rtt_no_queue_of ~left ~right ~trunks) 25);
    max_flows = Some (Stdlib.max 40 (int_of_float (400. *. scale)));
  }

(* Everything a run's observable outcome feeds through: the digest two
   domain counts must agree on byte for byte. *)
let result_digest (r : Open_loop.result) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d/%d/%d|%s" r.Open_loop.launched
          r.Open_loop.completed r.Open_loop.truncated
          (Metrics.fct_summary_csv r.Open_loop.metrics)))

(* ---- wan.asym ---- *)

let asym_trunks =
  [
    Wan.trunk ~delay:(Time.ms 10) ~queue_pkts:4000 ~marking_threshold:1000 ();
    Wan.trunk ~delay:(Time.ms 40) ~queue_pkts:4000 ~marking_threshold:1000 ();
  ]

let asym_schemes = [ Scheme.xmp 2; Scheme.lia 2; Scheme.dctcp ]

let asym_base ~scale = { Run_spec.default_base with horizon = Time.of_float_s scale }

(* Closed-loop bridged run for the utilization read-out: TraSh shifting
   shows up as the wan/border layers' utilization spread. *)
let asym_driver_config ~scale scheme =
  {
    (Run_spec.driver_config (asym_base ~scale) scheme Run_spec.Random) with
    Driver.fabric = Bridged { left; right; trunks = asym_trunks };
    cross_dc = 0.5;
    rto_min = Run_spec.wan_rto_min ~left ~right ~trunks:asym_trunks;
  }

let print_asym ~scale () =
  Render.heading
    "wan.asym: bridged k=4/k=4, 10 ms vs 40 ms trunks, cross-DC 0.6";
  List.iter
    (fun scheme ->
      Render.subheading (Scheme.name scheme);
      Workload_eval.print_open_loop
        (Run_spec.simulate
           (wan_spec ~scale ~trunks:asym_trunks ~cross_dc:0.6 ~scheme)))
    asym_schemes;
  Render.subheading "TraSh shifting: utilization by layer (XMP-2, closed loop)";
  let r = Driver.run (asym_driver_config ~scale (Scheme.xmp 2)) in
  Render.five_number_table ~value_header:"utilization"
    (Driver.utilization_by_layer r);
  Render.five_number_table ~value_header:"goodput Mbps"
    (List.map
       (fun (loc, d) -> (Topology.locality_name loc, d))
       (Metrics.goodputs_by_locality r.Driver.metrics));
  Render.subheading "determinism across the WAN cut";
  let spec =
    wan_spec ~scale ~trunks:asym_trunks ~cross_dc:0.6 ~scheme:(Scheme.xmp 2)
  in
  let d1 = result_digest (Run_spec.simulate ~domains:1 spec) in
  let d2 = result_digest (Run_spec.simulate ~domains:2 spec) in
  Render.say (Printf.sprintf "domains:1 digest %s" d1);
  Render.say
    (Printf.sprintf "domains:1 == domains:2 : %b" (String.equal d1 d2))

(* ---- wan.bdp ---- *)

let bdp_delays = [ Time.ms 10; Time.ms 40; Time.ms 100 ]

let bdp_rate = Units.gbps 1.

let bdp_beta = 4

(* Two constant-size cross-DC flows, long-lived enough to reach the
   trunk's steady state past slow start even at 100 ms. The intra-DC
   queues are deep and never mark, so the border queue's threshold is
   the only congestion signal — the regime Eq. 1 sizes K for. *)
let bdp_probe_segments = 20_000

let bdp_probe_sizes =
  Flow_size.of_points ~name:"bdp-probe"
    [ (float_of_int bdp_probe_segments, 1.) ]

(* a websearch spec whose sizes the run replaces with the probe's *)
let bdp_spec ~trunks =
  {
    (wan_spec ~scale:0.1 ~trunks ~cross_dc:1.0 ~scheme:(Scheme.xmp 2)) with
    (* nominally oversubscribed so the first arrivals land within a few
       ms; max_flows caps the probe at its two flows regardless *)
    load = 8.;
    horizon = Time.ms 20;
    drain = Time.sec 30.;
    max_flows = Some 2;
    queue_pkts = 2 * bdp_probe_segments;
    marking_threshold = 2 * bdp_probe_segments;
    (* a slow-start overshoot at WAN BDP loses thousands of segments in
       one burst when the border queue tail-drops; without SACK the
       recovery tail would dwarf the steady state Eq. 1 is about *)
    sack = true;
  }

(* marking at K with enough droptail headroom above it to absorb the
   slow-start overshoot before the first mark takes effect (one RTT
   later) *)
let bdp_trunks ~delay ~k =
  [
    Wan.trunk ~rate:bdp_rate ~delay
      ~queue_pkts:(bdp_packets ~rate:bdp_rate ~delay + (2 * k) + 64)
      ~marking_threshold:k ();
  ]

(* the probed thresholds: Eq. 1's, and a starved sixteenth of it *)
let bdp_ks ~delay =
  let k_eq1 = eq1_k ~rate:bdp_rate ~delay ~beta:bdp_beta in
  [ ("K = K_eq1   ", k_eq1); ("K = K_eq1/16", Stdlib.max 1 (k_eq1 / 16)) ]

let print_bdp ~scale:_ () =
  Render.heading "wan.bdp: Eq. 1 marking threshold at WAN BDPs (1 Gbps trunk)";
  Table.print
    ~header:[ "delay (ms)"; "BDP (pkts)"; "K_eq1 (pkts)" ]
    ~rows:
      (List.map
         (fun delay ->
           [
             string_of_int (delay / 1_000_000);
             string_of_int (bdp_packets ~rate:bdp_rate ~delay);
             string_of_int (eq1_k ~rate:bdp_rate ~delay ~beta:bdp_beta);
           ])
         bdp_delays)
    ();
  List.iter
    (fun delay ->
      Render.subheading (Printf.sprintf "trunk %d ms" (delay / 1_000_000));
      List.iter
        (fun (label, k) ->
          let trunks = bdp_trunks ~delay ~k in
          let config =
            {
              (Run_spec.config (bdp_spec ~trunks)) with
              Open_loop.sizes = bdp_probe_sizes;
            }
          in
          let r = Open_loop.run ~config () in
          Render.say
            (Printf.sprintf
               "%s (K=%d): %d/%d flows completed, mean goodput %.1f Mbps"
               label k r.Open_loop.completed r.Open_loop.launched
               (Metrics.mean_goodput_bps r.Open_loop.metrics /. 1e6)))
        (bdp_ks ~delay))
    bdp_delays

(* ---- wan.mixed ---- *)

let mixed_trunks =
  [ Wan.trunk ~delay:(Time.ms 40) ~queue_pkts:4000 ~marking_threshold:1000 () ]

let mixed_fractions = [ 0.; 0.25; 0.75 ]

let print_mixed ~scale () =
  Render.heading
    "wan.mixed: cross-DC traffic fraction sweep (XMP-2, 40 ms trunk)";
  List.iter
    (fun cross_dc ->
      Render.subheading (Printf.sprintf "cross-DC fraction %.2f" cross_dc);
      Workload_eval.print_open_loop
        (Run_spec.simulate
           (wan_spec ~scale ~trunks:mixed_trunks ~cross_dc
              ~scheme:(Scheme.xmp 2))))
    mixed_fractions

(* ---- scenario keys: the canonical spec of every run ---- *)

let asym_key ~scale =
  Run_spec.keys
    (Run_spec.Pattern
       { base = asym_base ~scale; scheme = Scheme.xmp 2; pattern = Run_spec.Random }
    :: List.map
         (fun scheme ->
           Run_spec.Workload (wan_spec ~scale ~trunks:asym_trunks ~cross_dc:0.6 ~scheme))
         asym_schemes)

let bdp_key =
  Printf.sprintf "probe-segments=%d\n" bdp_probe_segments
  ^ Run_spec.keys
      (List.concat_map
         (fun delay ->
           List.map
             (fun (_, k) -> Run_spec.Workload (bdp_spec ~trunks:(bdp_trunks ~delay ~k)))
             (bdp_ks ~delay))
         bdp_delays)

let mixed_key ~scale =
  Run_spec.keys
    (List.map
       (fun cross_dc ->
         Run_spec.Workload
           (wan_spec ~scale ~trunks:mixed_trunks ~cross_dc ~scheme:(Scheme.xmp 2)))
       mixed_fractions)
