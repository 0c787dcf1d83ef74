(* Byte-level reproducibility: the simulator's determinism contract says a
   seeded scenario produces identical results on every run. These tests
   run the same scenario twice in fresh simulator instances and compare
   full serializations — any wall-clock read, unseeded RNG or
   iteration-order dependence shows up as a digest mismatch. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tel = Xmp_telemetry
module Testbed = Xmp_net.Testbed
module Tcp = Xmp_transport.Tcp
module Driver = Xmp_workload.Driver
module Metrics = Xmp_workload.Metrics
module Scheme = Xmp_workload.Scheme

(* Exact serialization of a driver run: every completed flow record with
   floats rendered in hex (%h loses nothing), plus the event count.
   Anything nondeterministic in scheduling, path choice or workload
   generation perturbs at least one field. *)
let digest_of_run (r : Driver.result) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "events=%d\n" r.Driver.events);
  List.iter
    (fun (f : Metrics.flow_record) ->
      Buffer.add_string b
        (Printf.sprintf "f%d %s %d->%d size=%d start=%d fin=%d gp=%h tr=%b\n"
           f.flow (Scheme.name f.scheme) f.src f.dst f.size_segments
           (f.started : Time.t) (f.finished : Time.t) f.goodput_bps
           f.truncated))
    (Metrics.completed_flows r.Driver.metrics);
  Buffer.contents b

let fat_tree_config =
  {
    Driver.default_config with
    horizon = Time.ms 120;
    seed = 7;
    assignment = Driver.Uniform (Scheme.xmp 2);
    pattern = Driver.Permutation { min_segments = 40; max_segments = 80 };
  }

let test_driver_repeatable () =
  let d1 = digest_of_run (Driver.run fat_tree_config) in
  let d2 = digest_of_run (Driver.run fat_tree_config) in
  Alcotest.(check bool) "some flows completed" true
    (String.length d1 > String.length "events=0\n");
  Alcotest.(check string) "identical flow digests" d1 d2

let test_driver_seed_sensitivity () =
  (* the converse check: a different seed must actually change the run,
     otherwise the digest comparison above proves nothing *)
  let d1 = digest_of_run (Driver.run fat_tree_config) in
  let d2 = digest_of_run (Driver.run { fat_tree_config with seed = 8 }) in
  Alcotest.(check bool) "different seed, different run" true (d1 <> d2)

(* Trace-level reproducibility: the flight recorder's full event log
   (every enqueue, dequeue, CE mark, drop and cwnd change) of a dumbbell
   scenario, byte for byte. Flow start offsets come from the seeded RNG,
   so the seed reaches the log. *)
let traced_run ~seed =
  let sink = Tel.Sink.create ~recorder_capacity:(1 lsl 20) () in
  let sim =
    Sim.create ~config:{ Sim.seed; telemetry = sink } ()
  in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 10)
      ~capacity_pkts:50
  in
  let tb =
    Testbed.create ~net ~n_left:2 ~n_right:2
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.mbps 100.; delay = Time.us 50; disc } ]
      ()
  in
  for host = 0 to 1 do
    let start = Time.us (Random.State.int (Sim.rng sim) 1000) in
    Sim.at sim start (fun () ->
        ignore
          (Tcp.create ~net ~flow:(host + 1) ~subflow:0
             ~src:(Testbed.left_id tb host)
             ~dst:(Testbed.right_id tb host)
             ~path:0
             ~cc:(Xmp_core.Bos.make ())
             ~config:Xmp_core.Xmp.tcp_config
             ~source:(Tcp.Limited (ref 400))
             ()))
  done;
  Sim.run ~until:(Time.ms 80) sim;
  Tel.Export.events_csv (Tel.Sink.recorder sink)

let test_trace_repeatable () =
  let t1 = traced_run ~seed:21 in
  let t2 = traced_run ~seed:21 in
  let fingerprint csv = Digest.to_hex (Digest.string csv) in
  Alcotest.(check bool) "trace non-trivial" true (String.length t1 > 1000);
  let logged kind =
    List.exists
      (fun row ->
        match String.split_on_char ',' row with
        | _ :: k :: _ -> k = kind
        | _ -> false)
      (String.split_on_char '\n' t1)
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " events logged") true (logged kind))
    [ "enqueue"; "ce-mark"; "cwnd-change" ];
  Alcotest.(check string) "byte-identical event logs" (fingerprint t1)
    (fingerprint t2);
  Alcotest.(check bool) "different seed, different log" true
    (fingerprint t1 <> fingerprint (traced_run ~seed:22))

let suite =
  [
    Alcotest.test_case "driver run repeats byte-identically" `Slow
      test_driver_repeatable;
    Alcotest.test_case "different seed changes the run" `Slow
      test_driver_seed_sensitivity;
    Alcotest.test_case "packet trace repeats byte-identically" `Quick
      test_trace_repeatable;
  ]
