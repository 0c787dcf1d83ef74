(* Randomized end-to-end robustness: whatever the loss pattern, queue
   size, scheme or topology parameters, sized transfers must complete and
   deliver exactly their bytes. These are the deep-bug catchers. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Flow = Xmp_mptcp.Mptcp_flow
module Testbed = Xmp_net.Testbed

let tcp_transfer_fuzz =
  QCheck.Test.make ~count:40 ~name:"any sized TCP transfer completes exactly"
    QCheck.(
      quad (int_range 0 10_000) (int_range 3 60) (int_range 1 400) bool)
    (fun (seed, capacity, size, sack) ->
      let sim = Sim.create ~config:{ Sim.default_config with seed } () in
      let net = Net.Network.create sim in
      let disc () =
        Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail
          ~capacity_pkts:capacity
      in
      let tb =
        Testbed.create ~net ~n_left:2 ~n_right:2
          ~bottlenecks:
            [
              {
                Testbed.rate = Net.Units.mbps 200.;
                delay = Time.us 40;
                disc;
              };
            ]
          ()
      in
      let config = { Tcp.default_config with sack } in
      (* a competing infinite flow supplies cross-traffic and losses *)
      ignore
        (Tcp.create ~net ~flow:2 ~subflow:0
           ~src:(Testbed.left_id tb 1)
           ~dst:(Testbed.right_id tb 1)
           ~path:0
           ~cc:(fun v -> Xmp_transport.Reno.make v)
           ~config ());
      let conn =
        Tcp.create ~net ~flow:1 ~subflow:0
          ~src:(Testbed.left_id tb 0)
          ~dst:(Testbed.right_id tb 0)
          ~path:0
          ~cc:(fun v -> Xmp_transport.Reno.make v)
          ~config
          ~source:(Tcp.Limited (ref size))
          ()
      in
      Sim.run ~until:(Time.sec 30.) sim;
      Tcp.is_complete conn && Tcp.segments_acked conn = size)

let mptcp_transfer_fuzz =
  QCheck.Test.make ~count:30
    ~name:"any sized MPTCP transfer completes exactly"
    QCheck.(
      quad (int_range 0 10_000) (int_range 1 3) (int_range 1 500)
        (int_range 1 20))
    (fun (seed, n_subflows, size, mark_k) ->
      let sim = Sim.create ~config:{ Sim.default_config with seed } () in
      let net = Net.Network.create sim in
      let disc () =
        Net.Queue_disc.create
          ~policy:(Net.Queue_disc.Threshold_mark mark_k) ~capacity_pkts:40
      in
      let spec =
        { Testbed.rate = Net.Units.mbps 150.; delay = Time.us 60; disc }
      in
      let tb =
        Testbed.create ~net ~n_left:1 ~n_right:1
          ~bottlenecks:(List.init 3 (fun _ -> spec))
          ()
      in
      let f =
        Flow.create ~net ~flow:1
          ~src:(Testbed.left_id tb 0)
          ~dst:(Testbed.right_id tb 0)
          ~paths:(List.init n_subflows (fun i -> i))
          ~coupling:(Xmp_core.Trash.coupling ())
          ~config:Xmp_core.Xmp.tcp_config ~size_segments:size ()
      in
      Sim.run ~until:(Time.sec 30.) sim;
      Flow.is_complete f && Flow.segments_acked f = size)

let blackout_fuzz =
  QCheck.Test.make ~count:25
    ~name:"transfers survive arbitrary link blackouts"
    QCheck.(
      quad (int_range 0 10_000) (int_range 1 50) (int_range 1 200)
        (int_range 1 300))
    (fun (seed, blackout_start_ms, blackout_len_ms, size) ->
      let sim = Sim.create ~config:{ Sim.default_config with seed } () in
      let net = Net.Network.create sim in
      let disc () =
        Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail
          ~capacity_pkts:30
      in
      let tb =
        Testbed.create ~net ~n_left:1 ~n_right:1
          ~bottlenecks:
            [
              {
                Testbed.rate = Net.Units.mbps 100.;
                delay = Time.us 50;
                disc;
              };
            ]
          ()
      in
      let conn =
        Tcp.create ~net ~flow:1 ~subflow:0
          ~src:(Testbed.left_id tb 0)
          ~dst:(Testbed.right_id tb 0)
          ~path:0
          ~cc:(fun v -> Xmp_transport.Reno.make v)
          ~source:(Tcp.Limited (ref size))
          ()
      in
      Sim.at sim (Time.ms blackout_start_ms) (fun () ->
          Bottleneck.set_up net 0 false);
      Sim.at sim
        (Time.ms (blackout_start_ms + blackout_len_ms))
        (fun () -> Bottleneck.set_up net 0 true);
      Sim.run ~until:(Time.sec 120.) sim;
      Tcp.is_complete conn && Tcp.segments_acked conn = size)

let fat_tree_route_fuzz =
  QCheck.Test.make ~count:100 ~name:"fat-tree delivers on every selector"
    QCheck.(
      quad (int_range 0 1) (int_range 0 127) (int_range 0 127)
        (int_range 0 15))
    (fun (k_pick, src_raw, dst_raw, path_raw) ->
      let k = if k_pick = 0 then 4 else 6 in
      let cluster = Net.Shard.create ~shards:1 () in
      let sim = Net.Shard.sim cluster 0 and net = Net.Shard.net cluster 0 in
      let disc () =
        Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail
          ~capacity_pkts:50
      in
      let ft = Net.Fat_tree.create ~cluster ~k ~disc () in
      let n = ft.Net.Topology.n_hosts in
      let src = src_raw mod n in
      let dst = dst_raw mod n in
      if src = dst then true
      else begin
        let paths = ft.n_paths ~src ~dst in
        let path = path_raw mod paths in
        let delivered = ref false in
        Net.Network.register_endpoint net ~host:dst ~flow:1 ~subflow:0
          (fun _ -> delivered := true);
        Net.Node.send
          (Net.Network.node net src)
          (Net.Packet.data ~flow:1 ~subflow:0 ~src ~dst ~path ~seq:0
             ~ect:false ~cwr:false ~ts:0);
        Sim.run sim;
        !delivered
      end)

(* ----- scenario digests (the runner's cache keys) ----- *)

module Scenario = Xmp_runner.Scenario
module Runner = Xmp_runner.Runner

let scenario_digest_fuzz =
  QCheck.Test.make ~count:300
    ~name:"scenario digest: any param perturbation changes it"
    QCheck.(
      quad (int_range 0 100_000) (int_range 0 100_000) (int_range 1 1000)
        (int_range 1 1000))
    (fun (seed, size, dseed, dsize) ->
      let mk ?(name = "fuzz") seed size =
        Scenario.create ~name
          ~key:(Printf.sprintf "seed=%d size=%d" seed size)
          (fun () -> ())
      in
      let d = Scenario.digest (mk seed size) in
      String.equal d (Scenario.digest (mk seed size))
      && (not (String.equal d (Scenario.digest (mk (seed + dseed) size))))
      && (not (String.equal d (Scenario.digest (mk seed (size + dsize)))))
      && not (String.equal d (Scenario.digest (mk ~name:"fuzz2" seed size))))

let scenario_digest_semantics_fuzz =
  QCheck.Test.make ~count:10
    ~name:"equal scenario digests imply byte-equal results"
    QCheck.(pair (int_range 0 500) (int_range 1 120))
    (fun (seed, size) ->
      (* two independently built scenarios with the same parameters:
         same digest, and — determinism — the same rendered bytes *)
      let a = Test_runner.tiny ~seed ~size in
      let b = Test_runner.tiny ~seed ~size in
      String.equal (Scenario.digest a) (Scenario.digest b)
      && String.equal
           (Runner.capture a.Scenario.run)
           (Runner.capture b.Scenario.run))

module Scheme = Xmp_workload.Scheme

let arbitrary_scheme =
  QCheck.map
    (fun (which, n) ->
      match which with
      | 0 -> Scheme.dctcp
      | 1 -> Scheme.reno
      | 2 -> Scheme.lia n
      | 3 -> Scheme.olia n
      | 4 -> Scheme.xmp n
      | 5 -> Scheme.balia n
      | 6 -> Scheme.veno n
      | _ -> Scheme.amp n)
    QCheck.(pair (int_range 0 7) (int_range 1 64))

let scheme_name_roundtrip_fuzz =
  QCheck.Test.make ~count:200 ~name:"scheme name <-> of_name round-trips"
    arbitrary_scheme
    (fun scheme ->
      Scheme.of_name (Scheme.name scheme) = Some scheme
      && Scheme.of_name (String.lowercase_ascii (Scheme.name scheme))
         = Some scheme)

let scheme_name_garbage_fuzz =
  (* every non-decimal tail must be rejected; digits are excluded from
     the junk pool because "XMP-2" ^ "3" is the legitimate XMP-23 *)
  QCheck.Test.make ~count:200 ~name:"of_name rejects trailing garbage"
    QCheck.(
      pair arbitrary_scheme
        (oneofl
           [ "x"; "_"; "+"; "-"; " 3"; ".0"; "e1"; "x2"; "-2"; ":"; ":beta=6" ]))
    (fun (scheme, junk) -> Scheme.of_name (Scheme.name scheme ^ junk) = None)

module Run_spec = Xmp_experiments.Run_spec
module Fault_spec = Xmp_engine.Fault_spec

let cdf_file =
  lazy
    (let path = Filename.temp_file "xmp_cdf" ".txt" in
     Out_channel.with_open_bin path (fun oc ->
         output_string oc "1 0.5\n40 1\n");
     at_exit (fun () -> Sys.remove path);
     path)

(* every fault kind, over a target [target] draws *)
let fault_kinds target host =
  QCheck.Gen.(
    oneof
      [
        map (( ^ ) "down@1000000@") target;
        map (( ^ ) "up@2s@") target;
        map (fun t -> "loss@0..inf@" ^ t ^ "@bern=0.01@any") target;
        map (fun t -> "loss@1ms..2ms@" ^ t ^ "@ge=0.1,0.2,0,0.5@data") target;
        map (fun t -> "loss@0..inf@" ^ t ^ "@bern=0.3333333333333333@ack") target;
        map (( ^ ) "blackout@1ms..3ms@") target;
        map (Printf.sprintf "pause@0..1s@host=%d") host;
      ])

let one_host = Xmp_net.Wan.Leaf_spine_dc { leaves = 1; spines = 1; hosts_per_leaf = 1 }

(* every variant and field of a run spec, with values drawn across the
   printer's cases: whole s/ms/us/ns times, floats needing 17 digits,
   fault schedules, leaf-spine DCs, several trunks and testbed panels.
   Only runnable specs: an incast needs more than the two hosts of
   ft:2, a one-host DC only takes cross-dc 0 or 1, and a fault names
   links, tags and hosts of the spec's own topology. *)
module Gen_spec = struct
  open QCheck.Gen

  let time = oneofl [ 1; 999; 40_000; 1_500_000; 2_500_000_000; 3_000_000_000; 123_456_789 ]
  let pos = oneofl [ 0.03125; 0.4; 1.; 4.; 1e-3; 2.5; 1. /. 3. ]
  let mark = int_range 0 200 and queue = int_range 1 5000
  let beta = int_range 2 16 and seed = int_range (-5) 1000
  let scheme = QCheck.gen arbitrary_scheme

  (* a schedule over [net]: a link by name, a tag some link carries,
     every link, or a host *)
  let faults_on net =
    let module Network = Xmp_net.Network in
    let links = Network.links net in
    let tags = List.sort_uniq String.compare (List.filter_map Xmp_net.Link.tag links) in
    let hosts =
      List.filter
        (fun i -> Xmp_net.Node.kind (Network.node net i) = Xmp_net.Node.Host)
        (List.init (Network.n_nodes net) Fun.id)
    in
    let target =
      oneof
        [
          map (fun l -> "link=" ^ Xmp_net.Link.name l) (oneofl links);
          map (( ^ ) "tag=") (oneofl tags);
          return "all";
        ]
    in
    oneof
      [
        return Fault_spec.empty;
        (let+ seed = seed
         and+ specs = list_size (int_range 1 3) (fault_kinds target (oneofl hosts)) in
         Fault_spec.create ~seed (List.map Fault_spec.spec_of_string specs));
      ]

  let with_faults faults = function
    | Run_spec.Pattern p -> Run_spec.Pattern { p with base = { p.base with faults } }
    | Run_spec.Testbed t -> Run_spec.Testbed { t with faults }
    | Run_spec.Workload ({ fabric = Bridged _; _ } as w) -> Run_spec.Workload { w with faults }
    | Run_spec.Workload { fabric = Fat_tree _; _ } as s -> s

  (* [spec]'s runs, each given a schedule over its own topology *)
  let faulted spec =
    let* s = spec in
    map (fun f -> with_faults f s) (faults_on (Run_spec.scratch_net s))

  let dc =
    oneof
      [
        map (fun k -> Xmp_net.Wan.Fat_tree_dc { k = 2 * k }) (int_range 1 4);
        (let+ leaves = int_range 1 8
         and+ spines = int_range 1 4
         and+ hosts_per_leaf = int_range 1 8 in
         Xmp_net.Wan.Leaf_spine_dc { leaves; spines; hosts_per_leaf });
      ]

  let trunk =
    let+ delay = map Time.us (int_range 1 200_000)
    and+ rate = map Xmp_net.Units.gbps (oneofl [ 0.1; 1.; 2.5; 10. ])
    and+ queue_pkts = queue
    and+ marking_threshold = opt (int_range 1 1000) in
    Xmp_net.Wan.trunk ~delay ~rate ~queue_pkts ?marking_threshold ()

  let pattern =
    let* pattern = oneofl Run_spec.[ Permutation; Random; Incast ] in
    let+ scheme = scheme
    and+ k = map (fun k -> 2 * k) (int_range (if pattern = Incast then 2 else 1) 4)
    and+ horizon = time and+ seed = seed and+ queue_pkts = queue
    and+ marking_threshold = mark and+ beta = beta and+ rto_min = time
    and+ sack = bool and+ size_scale = pos
    and+ incast_jobs = int_range 1 8 in
    Run_spec.Pattern
      {
        scheme;
        pattern;
        base =
          { k; horizon; seed; queue_pkts; marking_threshold; beta; rto_min;
            sack; size_scale; incast_jobs; faults = Fault_spec.empty };
      }

  let bridged =
    let+ left = dc and+ right = dc
    and+ trunks = list_size (int_range 1 3) trunk
    and+ cross_dc = oneofl [ 0.; 0.25; 1.; 1. /. 3. ] in
    let one = Xmp_net.Wan.dc_n_hosts left = 1 || Xmp_net.Wan.dc_n_hosts right = 1 in
    let cross_dc = if one && cross_dc > 0. then 1. else cross_dc in
    (Xmp_net.Fabric.Bridged { left; right; trunks }, cross_dc)

  (* [fabric] yields a fabric and its cross-DC fraction *)
  let workload fabric =
    let+ fabric, cross_dc = fabric
    and+ scheme = scheme
    and+ cdf =
      oneofl Run_spec.[ Websearch; Datamining; Cdf_file (Lazy.force cdf_file) ]
    and+ size_scale = pos and+ load = pos and+ seed = seed
    and+ horizon = time and+ drain = oneof [ return 0; time ]
    and+ max_flows = opt (int_range 1 100_000) and+ queue_pkts = queue
    and+ marking_threshold = mark and+ beta = beta and+ rto_min = time
    and+ sack = bool in
    Run_spec.Workload
      {
        fabric; cross_dc; faults = Fault_spec.empty; scheme; cdf; size_scale;
        load; seed; horizon; drain; max_flows; queue_pkts; marking_threshold;
        beta; rto_min; sack;
      }

  let testbed =
    let+ panel =
      oneof
        [
          (let+ dctcp = bool and+ mark = mark in Run_spec.Fig1 { dctcp; mark });
          map (fun beta -> Run_spec.Fig4 { beta }) beta;
          map (fun beta -> Run_spec.Fig6 { beta }) beta;
          (let+ beta = beta and+ mark = mark in Run_spec.Fig7 { beta; mark });
        ]
    and+ scale = pos and+ seed = seed in
    Run_spec.Testbed { panel; scale; seed; faults = Fault_spec.empty }

  let spec =
    faulted
      (oneof
         [
           pattern;
           workload
             (oneof
                [ map (fun k -> (Xmp_net.Fabric.Fat_tree (2 * k), 0.)) (int_range 1 4); bridged ]);
           testbed;
         ])

  (* a run that takes faults, with one target its topology lacks *)
  let off_topology =
    let* s = oneof [ pattern; workload bridged; testbed ] in
    let net = Run_spec.scratch_net s in
    let+ seed = seed
    and+ bad =
      fault_kinds
        (oneofl [ "link=nowhere"; "tag=nosuch" ])
        (map (( + ) (Xmp_net.Network.n_nodes net)) (int_range 0 1000))
    in
    with_faults (Fault_spec.create ~seed [ Fault_spec.spec_of_string bad ]) s

  (* the two combinations that would parse but not run *)
  let unrunnable =
    oneof
      [
        map
          (function
            | Run_spec.Pattern p ->
              Run_spec.Pattern
                { p with pattern = Run_spec.Incast; base = { p.base with k = 2 } }
            | s -> s)
          pattern;
        workload
          (let+ fabric, _ = bridged
           and+ cross_dc = oneofl [ 0.25; 0.5; 1. /. 3. ]
           and+ left = bool in
           let one_sided : Xmp_net.Fabric.t =
             match fabric with
             | Bridged b when left -> Bridged { b with left = one_host }
             | Bridged b -> Bridged { b with right = one_host }
             | f -> f
           in
           (one_sided, cross_dc));
      ]
end

let arbitrary_spec = QCheck.make ~print:Run_spec.to_string Gen_spec.spec

let run_spec_roundtrip_fuzz =
  QCheck.Test.make ~count:500 ~name:"run spec to_string <-> of_string round-trips"
    arbitrary_spec
    (fun spec -> Run_spec.of_string (Run_spec.to_string spec) = Ok spec)

(* a printed spec ends in "sack=true|false", so a suffix cannot extend a
   valid value; a new word is unknown, repeated or malformed *)
let run_spec_garbage_fuzz =
  QCheck.Test.make ~count:200 ~name:"run spec of_string rejects junk"
    QCheck.(
      pair arbitrary_spec
        (oneofl
           [ "x"; "!"; "=1"; ".0"; "0"; " x"; " =1"; " bogus=1"; " seed=2";
             " sack=true"; " ft:4"; " XMP-2" ]))
    (fun (spec, junk) ->
      Result.is_error (Run_spec.of_string (Run_spec.to_string spec ^ junk)))

let run_spec_off_topology_fuzz =
  QCheck.Test.make ~count:100 ~name:"run spec of_string rejects a fault target off the topology"
    (QCheck.make ~print:Run_spec.to_string Gen_spec.off_topology)
    (fun spec ->
      match Run_spec.of_string (Run_spec.to_string spec) with
      | Error msg -> String.starts_with ~prefix:"field 'fault'" msg
      | Ok _ -> false)

let run_spec_unrunnable_fuzz =
  QCheck.Test.make ~count:100
    ~name:"run spec of_string rejects incast on ft:2 and a mixed draw from a one-host DC"
    (QCheck.make ~print:Run_spec.to_string Gen_spec.unrunnable)
    (fun spec -> Result.is_error (Run_spec.of_string (Run_spec.to_string spec)))

module Conformance = Xmp_workload.Conformance

(* The property matrix pins each (scheme, episode) cell in isolation;
   here the same episodes hit one long-lived rig in a random order, so
   the safety floor (finite windows >= 1, aggregate >= the driven
   subflow, clean ACKs never shrink) must hold from any reachable
   state, not just the fresh-rig states the matrix explores. *)
let episode_order_safety_fuzz =
  QCheck.Test.make ~count:80
    ~name:"conformance safety holds under any episode order"
    QCheck.(pair (int_range 0 7) (int_bound 100_000))
    (fun (which, seed) ->
      let scheme = List.nth Conformance.schemes which in
      let rng = Random.State.make [| seed |] in
      let eps = Array.of_list Conformance.episodes in
      for i = Array.length eps - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = eps.(i) in
        eps.(i) <- eps.(j);
        eps.(j) <- t
      done;
      let rig = Conformance.make_rig scheme in
      let last = ref Float.nan in
      Array.for_all
        (fun ep ->
          List.for_all
            (fun (s : Conformance.sample) ->
              let pre = !last in
              last := s.cwnd0;
              Float.is_finite s.cwnd0 && Float.is_finite s.total
              && s.cwnd0 >= 1. -. 1e-9
              && s.total >= s.cwnd0 -. 1e-9
              &&
              match s.step with
              | Conformance.Ack _ ->
                Float.is_nan pre || s.cwnd0 >= pre -. 1e-9
              | _ -> true)
            (Conformance.run_episode rig ep))
        eps)

let suite =
  [
    QCheck_alcotest.to_alcotest ~long:false tcp_transfer_fuzz;
    QCheck_alcotest.to_alcotest ~long:false mptcp_transfer_fuzz;
    QCheck_alcotest.to_alcotest ~long:false blackout_fuzz;
    QCheck_alcotest.to_alcotest ~long:false fat_tree_route_fuzz;
    QCheck_alcotest.to_alcotest ~long:false scenario_digest_fuzz;
    QCheck_alcotest.to_alcotest ~long:false scenario_digest_semantics_fuzz;
    QCheck_alcotest.to_alcotest ~long:false scheme_name_roundtrip_fuzz;
    QCheck_alcotest.to_alcotest ~long:false scheme_name_garbage_fuzz;
    QCheck_alcotest.to_alcotest ~long:false run_spec_roundtrip_fuzz;
    QCheck_alcotest.to_alcotest ~long:false run_spec_garbage_fuzz;
    QCheck_alcotest.to_alcotest ~long:false run_spec_unrunnable_fuzz;
    QCheck_alcotest.to_alcotest ~long:false run_spec_off_topology_fuzz;
    QCheck_alcotest.to_alcotest ~long:false episode_order_safety_fuzz;
  ]
