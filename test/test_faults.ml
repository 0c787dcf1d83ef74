(* Fault-injection subsystem: spec grammar, injector effects, telemetry
   events and determinism across runs and runner widths. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Fault_spec = Xmp_engine.Fault_spec
module Net = Xmp_net
module Testbed = Xmp_net.Testbed
module Injector = Xmp_faults.Injector
module Tcp = Xmp_transport.Tcp
module Reno = Xmp_transport.Reno
module Tel = Xmp_telemetry
module Runner = Xmp_runner.Runner
module Scenarios = Xmp_experiments.Scenarios

(* a fault window covering the whole run *)
let always = { Fault_spec.from_ns = Time.zero; until_ns = Time.infinity }

let check_invalid_arg name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* ----- spec grammar ----- *)

let sample_specs =
  [
    Fault_spec.Link_down { target = Fault_spec.Link "IN1->OUT1"; at = Time.ms 5 };
    Fault_spec.Link_up { target = Fault_spec.All_links; at = Time.sec 1. };
    Fault_spec.Loss
      {
        target = Fault_spec.Tag "rack";
        window = always;
        model = Fault_spec.Bernoulli 0.01;
        filter = Fault_spec.Any_packet;
      };
    Fault_spec.Loss
      {
        target = Fault_spec.Link "a->b";
        window = Fault_spec.window ~from_ns:(Time.ms 1) ~until_ns:(Time.ms 2);
        model =
          Fault_spec.Gilbert_elliott
            { enter_bad = 0.05; exit_bad = 0.2; loss_good = 0.; loss_bad = 0.5 };
        filter = Fault_spec.Ack_only;
      };
    Fault_spec.Blackout
      {
        target = Fault_spec.Tag "bottleneck";
        window = Fault_spec.window ~from_ns:Time.zero ~until_ns:(Time.us 250);
      };
    Fault_spec.Host_pause
      {
        host = 3;
        window = Fault_spec.window ~from_ns:(Time.ms 1) ~until_ns:(Time.ms 3);
      };
  ]

let test_spec_round_trip () =
  List.iter
    (fun spec ->
      let s = Fault_spec.spec_to_string spec in
      Alcotest.(check string)
        (Printf.sprintf "round-trip %s" s)
        s
        (Fault_spec.spec_to_string (Fault_spec.spec_of_string s)))
    sample_specs

let test_spec_human_times () =
  List.iter
    (fun (human, canonical) ->
      Alcotest.(check string) human canonical
        (Fault_spec.spec_to_string (Fault_spec.spec_of_string human)))
    [
      ("down@1.5s@link=X", "down@1500000000@link=X");
      ("up@250ms@all", "up@250000000@all");
      ("loss@0..inf@tag=rack@bern=0.01", "loss@0..inf@tag=rack@bern=0.01@any");
      ("blackout@40us..2ms@link=a->b", "blackout@40000..2000000@link=a->b");
      ("pause@1ms..inf@host=7", "pause@1000000..inf@host=7");
    ]

let test_spec_rejects_garbage () =
  List.iter
    (fun s ->
      check_invalid_arg s (fun () -> ignore (Fault_spec.spec_of_string s)))
    [
      "nonsense"; "down@link=X"; "loss@0..inf@link=X@bern=oops";
      "pause@1ms..2ms@link=X";
      (* past max_int ns: must not wrap to time 0 *)
      "down@10000000000s@all";
    ]

let test_validation () =
  let bad name spec =
    check_invalid_arg name (fun () -> ignore (Fault_spec.create [ spec ]))
  in
  bad "probability out of range"
    (Fault_spec.Loss
       {
         target = Fault_spec.All_links;
         window = always;
         model = Fault_spec.Bernoulli 1.5;
         filter = Fault_spec.Any_packet;
       });
  bad "empty link name"
    (Fault_spec.Link_down { target = Fault_spec.Link ""; at = Time.zero });
  bad "inverted window"
    (Fault_spec.Blackout
       {
         target = Fault_spec.All_links;
         window = { Fault_spec.from_ns = Time.ms 2; until_ns = Time.ms 1 };
       });
  bad "negative host"
    (Fault_spec.Host_pause { host = -1; window = always })

(* A schedule reaches digests only through the run spec's fault words:
   an empty schedule adds nothing, so fault-free keys stay fault-free. *)
let test_fault_words () =
  let module R = Xmp_experiments.Run_spec in
  Alcotest.(check string) "empty schedule has no words" ""
    (R.faults_to_string Fault_spec.empty);
  let t =
    Fault_spec.create ~seed:9
      [ Fault_spec.Link_down { target = Fault_spec.Link "x->y"; at = Time.ms 1 } ]
  in
  Alcotest.(check string)
    "seed + one spec" "fault-seed=9 fault=down@1000000@link=x->y"
    (R.faults_to_string t);
  Alcotest.(check bool)
    "an empty schedule leaves the base's key without fault words" false
    (List.exists
       (fun w -> String.starts_with ~prefix:"fault" w)
       (String.split_on_char ' ' (R.base_to_string R.default_base)))

(* ----- injector over a testbed ----- *)

let make_rig ?(sack = true) ?(seed = 47) ?telemetry ~segments () =
  let config =
    match telemetry with
    | Some telemetry -> { Sim.default_config with seed; telemetry }
    | None -> { Sim.default_config with seed }
  in
  let sim = Sim.create ~config () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail ~capacity_pkts:200
  in
  let tb =
    Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.mbps 100.; delay = Time.us 50; disc } ]
      ~access_delay:(Time.us 10) ()
  in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(fun v -> Reno.make v)
      ~config:{ Tcp.default_config with sack }
      ~source:(Tcp.Limited (ref segments))
      ()
  in
  (sim, net, conn)

let count_events sink kind =
  let n = ref 0 in
  Tel.Recorder.iter
    (fun e -> if String.equal (Tel.Event.kind e.Tel.Recorder.event) kind then incr n)
    (Tel.Sink.recorder sink);
  !n

let test_unknown_target_raises () =
  let _sim, net, _conn = make_rig ~segments:10 () in
  let schedule =
    Fault_spec.create
      [ Fault_spec.Link_down { target = Fault_spec.Link "nope"; at = Time.ms 1 } ]
  in
  check_invalid_arg "unknown link" (fun () ->
      ignore (Injector.install ~net schedule));
  let schedule =
    Fault_spec.create
      [
        Fault_spec.Blackout
          { target = Fault_spec.Tag "no-such-tag"; window = always };
      ]
  in
  check_invalid_arg "unknown tag" (fun () ->
      ignore (Injector.install ~net schedule))

let test_link_flap_events_and_recovery () =
  let sink = Tel.Sink.create () in
  let segments = 200 in
  let sim, net, conn = make_rig ~telemetry:sink ~segments () in
  let schedule =
    Fault_spec.create
      [
        Fault_spec.Link_down
          { target = Fault_spec.Link "IN1->OUT1"; at = Time.ms 2 };
        Fault_spec.Link_up
          { target = Fault_spec.Link "IN1->OUT1"; at = Time.ms 8 };
      ]
  in
  let inj = Injector.install ~net schedule in
  Sim.run ~until:(Time.sec 20.) sim;
  Alcotest.(check bool) "transfer survives the outage" true
    (Tcp.is_complete conn);
  Alcotest.(check int) "one down transition" 1 (Injector.link_downs inj);
  Alcotest.(check int) "one up transition" 1 (Injector.link_ups inj);
  Alcotest.(check int) "link-down event" 1 (count_events sink "link-down");
  Alcotest.(check int) "link-up event" 1 (count_events sink "link-up");
  Alcotest.(check bool) "outage forced retransmission" true
    (Tcp.retransmits conn > 0)

let test_bernoulli_loss_deterministic () =
  let run () =
    let sink = Tel.Sink.create () in
    let segments = 300 in
    let sim, net, conn = make_rig ~telemetry:sink ~segments () in
    let schedule =
      Fault_spec.create ~seed:5
        [
          Fault_spec.Loss
            {
              target = Fault_spec.Link "IN1->OUT1";
              window = always;
              model = Fault_spec.Bernoulli 0.02;
              filter = Fault_spec.Data_only;
            };
        ]
    in
    let inj = Injector.install ~net schedule in
    Sim.run ~until:(Time.sec 30.) sim;
    Alcotest.(check bool) "completes under loss" true (Tcp.is_complete conn);
    (Injector.injected_drops inj, count_events sink "injected-drop")
  in
  let drops1, events1 = run () in
  let drops2, events2 = run () in
  Alcotest.(check bool) "some drops injected" true (drops1 > 0);
  Alcotest.(check int) "drop events recorded" drops1 events1;
  Alcotest.(check int) "drop count reproducible" drops1 drops2;
  Alcotest.(check int) "event count reproducible" events1 events2

let test_gilbert_elliott_deterministic () =
  let run () =
    let segments = 300 in
    let sim, net, conn = make_rig ~segments () in
    let schedule =
      Fault_spec.create ~seed:11
        [
          Fault_spec.Loss
            {
              target = Fault_spec.Link "IN1->OUT1";
              window = always;
              model =
                Fault_spec.Gilbert_elliott
                  {
                    enter_bad = 0.01;
                    exit_bad = 0.3;
                    loss_good = 0.;
                    loss_bad = 0.5;
                  };
              filter = Fault_spec.Any_packet;
            };
        ]
    in
    let inj = Injector.install ~net schedule in
    Sim.run ~until:(Time.sec 30.) sim;
    Alcotest.(check bool) "completes under bursty loss" true
      (Tcp.is_complete conn);
    Injector.injected_drops inj
  in
  let d1 = run () in
  let d2 = run () in
  Alcotest.(check bool) "some drops injected" true (d1 > 0);
  Alcotest.(check int) "burst realization reproducible" d1 d2

let test_blackout_window () =
  let segments = 200 in
  let sim, net, conn = make_rig ~segments () in
  let schedule =
    Fault_spec.create
      [
        Fault_spec.Blackout
          {
            target = Fault_spec.Tag "bottleneck";
            window =
              Fault_spec.window ~from_ns:(Time.ms 2) ~until_ns:(Time.ms 8);
          };
      ]
  in
  ignore (Injector.install ~net schedule);
  Sim.run ~until:(Time.sec 20.) sim;
  Alcotest.(check bool) "completes after the blackout" true
    (Tcp.is_complete conn);
  Alcotest.(check bool) "blackout forced recovery" true
    (Tcp.retransmits conn > 0)

(* ----- fat-tree integration ----- *)

let make_fat_tree () =
  let cluster = Net.Shard.create ~shards:1 () in
  let sim = Net.Shard.sim cluster 0 and net = Net.Shard.net cluster 0 in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 10)
      ~capacity_pkts:100
  in
  ignore (Net.Fat_tree.create ~cluster ~k:4 ~disc ());
  (sim, net)

let test_fat_tree_uplink_helpers () =
  (* fault schedules address a rack cable by its two literal names *)
  let _sim, net = make_fat_tree () in
  List.iter
    (fun name ->
      match Net.Network.find_link net ~name with
      | Some l ->
        Alcotest.(check string) "find_link returns that link" name
          (Net.Link.name l);
        Alcotest.(check (option string)) (name ^ " carries the aggregation tag")
          (Some "aggregation") (Net.Link.tag l)
      | None -> Alcotest.failf "find_link missed %s" name)
    [ "e0.0->a0.0"; "a0.0->e0.0"; "e3.1->a3.0" ];
  Alcotest.(check bool) "no pod 9 on a k=4 tree" true
    (Net.Network.find_link net ~name:"e9.0->a9.0" = None)

let test_host_pause () =
  let sim, net = make_fat_tree () in
  let host = 0 in
  let schedule =
    Fault_spec.create
      [
        Fault_spec.Host_pause
          {
            host;
            window = Fault_spec.window ~from_ns:(Time.ms 1) ~until_ns:(Time.ms 2);
          };
      ]
  in
  let inj = Injector.install ~net schedule in
  Sim.run ~until:(Time.ms 5) sim;
  Alcotest.(check bool) "every port went down" true (Injector.link_downs inj >= 1);
  Alcotest.(check int) "every port came back" (Injector.link_downs inj)
    (Injector.link_ups inj)

let test_host_pause_rejects_switch () =
  let _sim, net = make_fat_tree () in
  let rec find_switch i =
    let n = Net.Network.node net i in
    match Net.Node.kind n with
    | Net.Node.Switch -> i
    | Net.Node.Host -> find_switch (i + 1)
  in
  let switch = find_switch 0 in
  let schedule =
    Fault_spec.create
      [ Fault_spec.Host_pause { host = switch; window = always } ]
  in
  check_invalid_arg "switch is not a host" (fun () ->
      ignore (Injector.install ~net schedule))

(* ----- determinism across runner widths ----- *)

let test_fault_scenarios_reproducible_across_jobs () =
  let scenarios =
    match Scenarios.select Scenarios.quick [ "faults" ] with
    | Ok l -> l
    | Error name -> Alcotest.failf "unknown scenario %s" name
  in
  Alcotest.(check int) "both fault scenarios selected" 2
    (List.length scenarios);
  let outputs ~jobs =
    let outcomes, _stats =
      Runner.run ~jobs ~cache:Runner.No_cache ~progress:false scenarios
    in
    List.map (fun (o : Runner.outcome) -> o.output) outcomes
  in
  let seq = outputs ~jobs:1 in
  let par = outputs ~jobs:4 in
  List.iter2
    (fun a b -> Alcotest.(check string) "byte-identical across --jobs" a b)
    seq par;
  List.iter
    (fun out ->
      Alcotest.(check bool) "scenario produced output" true
        (String.length out > 0))
    seq

let suite =
  [
    Alcotest.test_case "spec round-trip" `Quick test_spec_round_trip;
    Alcotest.test_case "spec human-friendly times" `Quick
      test_spec_human_times;
    Alcotest.test_case "spec rejects garbage" `Quick test_spec_rejects_garbage;
    Alcotest.test_case "schedule validation" `Quick test_validation;
    Alcotest.test_case "digest params" `Quick test_fault_words;
    Alcotest.test_case "unknown target raises at install" `Quick
      test_unknown_target_raises;
    Alcotest.test_case "link flap: events + recovery" `Quick
      test_link_flap_events_and_recovery;
    Alcotest.test_case "bernoulli loss deterministic" `Quick
      test_bernoulli_loss_deterministic;
    Alcotest.test_case "gilbert-elliott loss deterministic" `Quick
      test_gilbert_elliott_deterministic;
    Alcotest.test_case "blackout window" `Quick test_blackout_window;
    Alcotest.test_case "fat-tree uplink helpers" `Quick
      test_fat_tree_uplink_helpers;
    Alcotest.test_case "host pause" `Quick test_host_pause;
    Alcotest.test_case "host pause rejects switches" `Quick
      test_host_pause_rejects_switch;
    Alcotest.test_case "fault scenarios reproducible across jobs" `Slow
      test_fault_scenarios_reproducible_across_jobs;
  ]
