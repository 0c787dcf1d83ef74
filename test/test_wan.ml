(* Inter-DC WAN bridge: geometry, routing over every cross-DC path
   selector, zero-load RTT pins (the ideal-FCT denominator), end-to-end
   MPTCP flows across the trunk, Gilbert-Elliott trunk loss, and the
   domains-1-vs-2 byte-equality guarantee of the two-shard placement. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Fault_spec = Xmp_engine.Fault_spec
module Net = Xmp_net
module Network = Xmp_net.Network
module Node = Xmp_net.Node
module Packet = Xmp_net.Packet
module Queue_disc = Xmp_net.Queue_disc
module Wan = Xmp_net.Wan
module Topology = Xmp_net.Topology
module Open_loop = Xmp_workload.Open_loop
module Scheme = Xmp_workload.Scheme
module Metrics = Xmp_workload.Metrics

(* a fault window covering the whole run *)
let always = { Fault_spec.from_ns = Time.zero; until_ns = Time.infinity }

let disc () = Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:100

let ft4 = Wan.Fat_tree_dc { k = 4 }

let ls_dc = Wan.Leaf_spine_dc { leaves = 4; spines = 2; hosts_per_leaf = 2 }

let flat_wan ?(left = ft4) ?(right = ft4) ~trunks () =
  let cluster = Net.Shard.create ~shards:1 () in
  let wan = Wan.create ~cluster ~left ~right ~trunks ~disc () in
  (Net.Shard.sim cluster 0, Net.Shard.net cluster 0, wan)

(* ---- geometry -------------------------------------------------------- *)

let test_geometry () =
  let trunks = [ Wan.trunk (); Wan.trunk ~delay:(Time.ms 10) () ] in
  let _sim, net, wan = flat_wan ~right:ls_dc ~trunks () in
  Alcotest.(check int) "hosts: 16 fat-tree + 8 leaf-spine" 24 wan.n_hosts;
  Alcotest.(check (list string)) "one link per trunk direction"
    [ "d0.bdr0->d1.bdr0"; "d1.bdr0->d0.bdr0"; "d0.bdr1->d1.bdr1";
      "d1.bdr1->d0.bdr1" ]
    (List.map Net.Link.name (Network.links_tagged net "wan"));
  Alcotest.(check int) "host 0 in DC 0" 0 (Topology.dc_of_host wan 0);
  Alcotest.(check int) "host 15 in DC 0" 0 (Topology.dc_of_host wan 15);
  Alcotest.(check int) "host 16 in DC 1" 1 (Topology.dc_of_host wan 16);
  Alcotest.(check int) "host 23 in DC 1" 1 (Topology.dc_of_host wan 23);
  (* locality: intra-DC classes come from each DC's own geometry *)
  let loc = wan.locality in
  Alcotest.(check string) "same rack" "Inner-Rack"
    (Topology.locality_name (loc ~src:0 ~dst:1));
  Alcotest.(check string) "same pod" "Inter-Rack"
    (Topology.locality_name (loc ~src:0 ~dst:2));
  Alcotest.(check string) "across pods" "Inter-Pod"
    (Topology.locality_name (loc ~src:0 ~dst:4));
  Alcotest.(check string) "across the cut" "Inter-DC"
    (Topology.locality_name (loc ~src:0 ~dst:16));
  Alcotest.(check string) "leaf-spine same leaf" "Inner-Rack"
    (Topology.locality_name (loc ~src:16 ~dst:17));
  Alcotest.(check string) "leaf-spine across leaves" "Inter-Rack"
    (Topology.locality_name (loc ~src:16 ~dst:18));
  (* path diversity: intra-DC counts as before; cross-DC = source DC's
     up-division times the trunk count *)
  Alcotest.(check int) "fat-tree inter-pod paths" 4
    (wan.n_paths ~src:0 ~dst:4);
  Alcotest.(check int) "cross-DC paths from fat tree" 8
    (wan.n_paths ~src:0 ~dst:16);
  Alcotest.(check int) "cross-DC paths from leaf-spine" 4
    (wan.n_paths ~src:16 ~dst:0);
  Alcotest.(check int) "leaf-spine intra paths" 2
    (wan.n_paths ~src:16 ~dst:18)

let test_validation () =
  Alcotest.check_raises "odd k"
    (Invalid_argument "Wan: fat-tree k") (fun () ->
      ignore
        (Wan.max_rtt_no_queue_of
           ~left:(Wan.Fat_tree_dc { k = 3 })
           ~right:ft4
           ~trunks:[ Wan.trunk () ]));
  Alcotest.check_raises "no trunks"
    (Invalid_argument "Wan.max_rtt_no_queue_of: no trunks") (fun () ->
      ignore (Wan.max_rtt_no_queue_of ~left:ft4 ~right:ft4 ~trunks:[]));
  Alcotest.check_raises "non-positive trunk delay"
    (Invalid_argument "Wan.trunk: delay must be positive") (fun () ->
      ignore (Wan.trunk ~delay:Time.zero ()))

(* ---- zero-load RTT pins (the ideal-FCT denominator) ------------------ *)

let test_zero_load_rtt_pins () =
  let trunks = [ Wan.trunk ~delay:(Time.ms 40) () ] in
  let _sim, _net, wan = flat_wan ~trunks () in
  (* one-way cross-DC: ascent (20+30+40 us) + attach (40 us) + trunk
     (40 ms) + attach (40 us) + descent (90 us); doubled for the RTT *)
  Alcotest.(check int) "bridged fat-tree pair ideal RTT"
    (Time.us 80_520)
    (wan.zero_load_rtt ~src:0 ~dst:16);
  (* intra-DC ideals unchanged by the bridge *)
  Alcotest.(check int) "inner-rack RTT" (Time.us 80)
    (wan.zero_load_rtt ~src:0 ~dst:1);
  Alcotest.(check int) "inter-pod RTT" (Time.us 360)
    (wan.zero_load_rtt ~src:0 ~dst:4);
  (* multiple trunks: the ideal uses the fastest, RTO sizing the slowest *)
  let trunks =
    [ Wan.trunk ~delay:(Time.ms 10) (); Wan.trunk ~delay:(Time.ms 100) () ]
  in
  let _sim, _net, wan2 = flat_wan ~trunks () in
  Alcotest.(check int) "ideal uses fastest trunk"
    (Time.us 20_520)
    (wan2.zero_load_rtt ~src:0 ~dst:16);
  Alcotest.(check int) "max_rtt_no_queue_of uses slowest trunk"
    (Time.us 200_520)
    (Wan.max_rtt_no_queue_of ~left:ft4 ~right:ft4 ~trunks);
  let _sim, _net, slow =
    flat_wan ~trunks:[ Wan.trunk ~delay:(Time.ms 100) () ] ()
  in
  Alcotest.(check int) "static helper agrees with the built slowest path"
    (slow.zero_load_rtt ~src:0 ~dst:16)
    (Wan.max_rtt_no_queue_of ~left:ft4 ~right:ft4 ~trunks);
  (* leaf-spine attach hop is the spine delay (30 us), not the core's *)
  Alcotest.(check int) "leaf-spine to leaf-spine ideal"
    (Time.mul (Time.add (Time.us 160) (Time.ms 40)) 2)
    (Wan.max_rtt_no_queue_of ~left:ls_dc ~right:ls_dc
       ~trunks:[ Wan.trunk ~delay:(Time.ms 40) () ])

(* ---- routing: every cross-DC selector delivers ----------------------- *)

let deliver_all ~left ~right ~src ~dst () =
  let trunks =
    [ Wan.trunk ~delay:(Time.ms 1) (); Wan.trunk ~delay:(Time.ms 1) () ]
  in
  let sim, net, wan = flat_wan ~left ~right ~trunks () in
  let n = wan.Topology.n_paths ~src ~dst in
  let got = Array.make n 0 in
  Network.register_endpoint net ~host:dst ~flow:1 ~subflow:0 (fun p ->
      got.(Packet.seq p) <- got.(Packet.seq p) + 1);
  for path = 0 to n - 1 do
    Node.send (Network.node net src)
      (Packet.data ~flow:1 ~subflow:0 ~src ~dst ~path ~seq:path ~ect:false
         ~cwr:false ~ts:Time.zero)
  done;
  Sim.run ~until:(Time.ms 20) sim;
  Array.iteri
    (fun path c ->
      Alcotest.(check int)
        (Printf.sprintf "selector %d delivered once (src=%d dst=%d)" path src
           dst)
        1 c)
    got;
  Alcotest.(check int) "nothing dead-lettered" 0
    (Network.packets_dead_lettered net)

let test_routing_all_selectors () =
  (* fat tree -> leaf-spine, both directions, plus intra-DC sanity *)
  deliver_all ~left:ft4 ~right:ls_dc ~src:0 ~dst:16 ();
  deliver_all ~left:ft4 ~right:ls_dc ~src:17 ~dst:5 ();
  deliver_all ~left:ft4 ~right:ft4 ~src:3 ~dst:30 ();
  deliver_all ~left:ft4 ~right:ft4 ~src:0 ~dst:7 ()

(* One packet's cross-DC one-way latency decomposes into per-hop
   serialization + propagation; pins the whole path's wiring. *)
let test_trunk_timing () =
  let trunk_rate = Net.Units.gbps 10. in
  let trunks = [ Wan.trunk ~rate:trunk_rate ~delay:(Time.ms 10) () ] in
  let sim, net, _wan = flat_wan ~trunks () in
  let arrival = ref Time.zero in
  Network.register_endpoint net ~host:16 ~flow:1 ~subflow:0 (fun _ ->
      arrival := Sim.now sim);
  Node.send (Network.node net 0)
    (Packet.data ~flow:1 ~subflow:0 ~src:0 ~dst:16 ~path:0 ~seq:0 ~ect:false
       ~cwr:false ~ts:Time.zero);
  Sim.run ~until:(Time.ms 20) sim;
  let tx_dc =
    Net.Units.tx_time (Net.Units.gbps 1.) ~bytes:Packet.data_wire_bytes
  in
  let tx_wan = Net.Units.tx_time trunk_rate ~bytes:Packet.data_wire_bytes in
  let expect =
    (* host->edge, edge->agg, agg->core at DC rate; core->border,
       border->border, border->core at trunk rate; then core->agg,
       agg->edge, edge->host back at DC rate *)
    List.fold_left Time.add Time.zero
      [
        tx_dc; Time.us 20;  (* rack *)
        tx_dc; Time.us 30;  (* aggregation *)
        tx_dc; Time.us 40;  (* core *)
        tx_wan; Time.us 40;  (* border attach *)
        tx_wan; Time.ms 10;  (* trunk *)
        tx_wan; Time.us 40;  (* remote attach *)
        tx_dc; Time.us 40;  (* core descent *)
        tx_dc; Time.us 30;  (* aggregation *)
        tx_dc; Time.us 20;  (* rack *)
      ]
  in
  Alcotest.(check int) "one-way latency = sum of hops" expect !arrival

(* ---- one shard vs one shard per DC ------------------------------------ *)

let test_placement () =
  let trunks =
    [ Wan.trunk ~delay:(Time.ms 2) (); Wan.trunk ~delay:(Time.ms 1) () ]
  in
  let build shards =
    let cluster = Net.Shard.create ~shards () in
    Wan.create ~cluster ~left:ft4 ~right:ls_dc ~trunks ~disc ()
  in
  (* the fastest trunk is the lookahead *)
  Test_topologies.check_placement ~flat:(build 1) ~sharded:(build 2)
    ~lookahead:(Time.ms 1);
  Alcotest.check_raises "other shard counts"
    (Invalid_argument "Wan.create: cluster must have 1 or 2 shards")
    (fun () -> ignore (build 3))

(* ---- end-to-end flows over the two-shard placement ------------------- *)

let trunks_1ms = [ Wan.trunk ~delay:(Time.ms 1) ~queue_pkts:200 () ]

let wan_config =
  {
    Open_loop.default_config with
    fabric = Bridged { left = ft4; right = ft4; trunks = trunks_1ms };
    scheme = Scheme.xmp 2;
    load = 0.3;
    horizon = Time.ms 40;
    drain = Time.sec 1.;
    max_flows = Some 40;
    cross_dc = 0.5;
    rto_min = Time.ms 5;
    keep_flows = true;
  }

let test_cross_dc_flows_complete () =
  let r =
    Open_loop.run_wan ~config:wan_config ~left:ft4 ~right:ft4
      ~trunks:trunks_1ms ()
  in
  Alcotest.(check bool) "flows launched" true (r.launched > 10);
  Alcotest.(check bool) "most flows completed" true
    (r.completed > r.launched / 2);
  Alcotest.(check bool) "portal mail crossed the trunk" true (r.mail > 0);
  let locs = List.map fst (Metrics.goodputs_by_locality r.metrics) in
  Alcotest.(check bool) "Inter-DC goodput class populated" true
    (List.mem Topology.Inter_dc locs);
  (* cross-DC flows really finished, not just local ones *)
  let cross_done =
    List.exists
      (fun (f : Metrics.flow_record) ->
        f.locality = Topology.Inter_dc && not f.truncated)
      (Metrics.completed_flows r.metrics)
  in
  Alcotest.(check bool) "a cross-DC flow completed" true cross_done

(* Gilbert-Elliott data loss on both trunk directions *)
let trunk_loss =
  Fault_spec.create ~seed:7
    [
      Fault_spec.Loss
        {
          target = Fault_spec.Tag "wan";
          window = always;
          model =
            Fault_spec.Gilbert_elliott
              {
                enter_bad = 0.05;
                exit_bad = 0.2;
                loss_good = 0.;
                loss_bad = 0.5;
              };
          filter = Fault_spec.Data_only;
        };
    ]

let test_trunk_loss_injects () =
  let clean = Open_loop.run ~config:wan_config () in
  let lossy = Open_loop.run ~config:{ wan_config with faults = trunk_loss } () in
  (* same arrival schedule either way; loss must not wedge the run *)
  Alcotest.(check int) "same launches" clean.launched lossy.launched;
  Alcotest.(check bool) "lossy run still completes flows" true
    (lossy.completed > 0);
  Alcotest.(check bool) "the loss took effect" false
    (String.equal (Metrics.fct_summary_csv lossy.metrics)
       (Metrics.fct_summary_csv clean.metrics));
  Alcotest.(check bool) "loss does not help goodput" true
    (Metrics.mean_goodput_bps lossy.metrics
    <= Metrics.mean_goodput_bps clean.metrics +. 1e-6)

(* On the per-DC placement a trunk direction lives in its source DC's
   shard and a host in its own DC's: a named target arms there alone,
   and only a target no shard holds is refused. *)
let test_named_fault_targets_per_shard () =
  let module Injector = Xmp_faults.Injector in
  let cluster = Net.Shard.create ~shards:2 () in
  ignore (Wan.create ~cluster ~left:ft4 ~right:ft4 ~trunks:trunks_1ms ~disc ());
  let install specs = Injector.install_cluster cluster (Fault_spec.create specs) in
  let injectors =
    install
      [
        Fault_spec.Link_down
          { target = Fault_spec.Link "d1.bdr0->d0.bdr0"; at = Time.ms 1 };
        Fault_spec.Host_pause
          {
            host = 3;
            window = Fault_spec.window ~from_ns:(Time.ms 1) ~until_ns:(Time.ms 2);
          };
      ]
  in
  Net.Shard.run ~until:(Time.ms 3) cluster;
  let per_shard f = Array.to_list (Array.map f injectors) in
  Alcotest.(check (list int)) "downs: host 3's port, then the trunk" [ 1; 1 ]
    (per_shard Injector.link_downs);
  Alcotest.(check (list int)) "ups: host 3's port only" [ 1; 0 ]
    (per_shard Injector.link_ups);
  Alcotest.check_raises "a link no shard holds"
    (Invalid_argument "Fault injector: no link named \"d0.bdr0->nowhere\"")
    (fun () ->
      ignore
        (install
           [
             Fault_spec.Link_down
               { target = Fault_spec.Link "d0.bdr0->nowhere"; at = Time.ms 1 };
           ]));
  Alcotest.check_raises "a host no shard holds"
    (Invalid_argument "Fault injector: no node 100000")
    (fun () ->
      ignore
        (install [ Fault_spec.Host_pause { host = 100_000; window = always } ]))

(* ---- domains:1 vs domains:2 byte equality ---------------------------- *)

let digest_of (r : Open_loop.result) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "launched=%d completed=%d truncated=%d mail=%d\n"
       r.launched r.completed r.truncated r.mail);
  Buffer.add_string b
    (Printf.sprintf "mean_goodput=%.6f\n" (Metrics.mean_goodput_bps r.metrics));
  Buffer.add_string b (Metrics.fct_summary_csv r.metrics);
  List.iter
    (fun (f : Metrics.flow_record) ->
      Buffer.add_string b
        (Printf.sprintf "%d %d->%d %s %d %d %d %.6f %b\n" f.flow f.src f.dst
           (Topology.locality_name f.locality)
           f.size_segments f.started f.finished f.goodput_bps f.truncated))
    (Metrics.completed_flows r.metrics);
  Buffer.contents b

let run_digest ~domains () =
  digest_of (Open_loop.run ~config:{ wan_config with faults = trunk_loss } ~domains ())

(* Same forked-child discipline as test_shard: spawning a domain latches
   the runtime into multicore mode, which would break the Runner
   process-pool tests later in this binary. *)
let capture_in_child f =
  let r, w = Unix.pipe () in
  flush Stdlib.stdout;
  flush Stdlib.stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let out = try f () with e -> "child raised: " ^ Printexc.to_string e in
    let oc = Unix.out_channel_of_descr w in
    output_string oc out;
    flush oc;
    Unix._exit (if String.length out > 0 then 0 else 1)
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "wan sharded child did not exit cleanly");
    out

let test_domains_byte_equality () =
  let one = run_digest ~domains:1 () in
  let two = capture_in_child (run_digest ~domains:2) in
  Alcotest.(check bool) "digest non-trivial" true (String.length one > 200);
  Alcotest.(check string) "domains=1 and domains=2 byte-identical" one two

(* A deferred cross-DC flow waits as a record: its sender is built on
   its own shard at the start, and its receiver opens at the first
   barrier after it. The 10 ms trunk is the lookahead, so flows wait up
   to one 10 ms epoch, and none of their data can reach the other DC
   before that barrier. A receiver that opened too late would
   dead-letter data and wedge its flow; the count over all shards must
   stay what it was when every connection was built at launch, at
   either domain count. (That is none here. Opening one barrier late
   instead dead-letters 244 packets and leaves 28 more flows
   unfinished.) *)
let deferred_config =
  {
    wan_config with
    fabric =
      Bridged
        {
          left = ft4;
          right = ft4;
          trunks = [ Wan.trunk ~delay:(Time.ms 10) ~queue_pkts:200 () ];
        };
    load = 0.6;
    horizon = Time.ms 60;
    drain = Time.ms 200;
    max_flows = None;
    keep_flows = false;
  }

let dead_letters ~domains () =
  let r = Open_loop.run ~config:deferred_config ~domains () in
  Printf.sprintf "launched=%d completed=%d dead-lettered=%d" r.launched
    r.completed r.dead_lettered

let test_deferred_split_dead_letters () =
  let pinned = "launched=85 completed=68 dead-lettered=0" in
  Alcotest.(check string) "domains=1" pinned (dead_letters ~domains:1 ());
  Alcotest.(check string) "domains=2" pinned
    (capture_in_child (dead_letters ~domains:2))

(* The same run with TCP over a trunk that drops 1% of the packets it
   carries, data and ACKs alike, and a 1 ms RTO floor. Timeouts then
   resend data the receiver already holds, and a resend can reach the
   other DC after its flow completed, when the receiver half is all that
   is left of the flow: the receiver re-ACKs it (an ACK that dead-letters
   at the sender's host) until the barrier reaps it, and after that it
   dead-letters itself. The counts must stay what they were when a
   finished flow was kept whole until the barrier, at either domain
   count. *)
let lossy_trunk =
  Fault_spec.create
    [
      Fault_spec.Loss
        {
          target = Fault_spec.Tag "wan";
          window = always;
          model = Fault_spec.Bernoulli 0.01;
          filter = Fault_spec.Any_packet;
        };
    ]

let lossy_dead_letters ~domains () =
  let config =
    {
      deferred_config with
      scheme = Scheme.reno;
      rto_min = Time.ms 1;
      faults = lossy_trunk;
    }
  in
  let r = Open_loop.run ~config ~domains () in
  Printf.sprintf "launched=%d completed=%d dead-lettered=%d" r.launched
    r.completed r.dead_lettered

let test_deferred_split_lossy_trunk () =
  let pinned = "launched=88 completed=67 dead-lettered=19" in
  Alcotest.(check string) "domains=1" pinned (lossy_dead_letters ~domains:1 ());
  Alcotest.(check string) "domains=2" pinned
    (capture_in_child (lossy_dead_letters ~domains:2))

let suite =
  [
    Alcotest.test_case "geometry and path counts" `Quick test_geometry;
    Alcotest.test_case "spec validation" `Quick test_validation;
    Alcotest.test_case "zero-load RTT pins" `Quick test_zero_load_rtt_pins;
    Alcotest.test_case "every cross-DC selector delivers" `Quick
      test_routing_all_selectors;
    Alcotest.test_case "trunk path timing decomposition" `Quick
      test_trunk_timing;
    Alcotest.test_case "cross-DC MPTCP flows complete" `Slow
      test_cross_dc_flows_complete;
    Alcotest.test_case "Gilbert-Elliott trunk loss" `Slow
      test_trunk_loss_injects;
    Alcotest.test_case "wan domains 1 vs 2 byte equality" `Slow
      test_domains_byte_equality;
    Alcotest.test_case "one-shard and per-DC builds agree" `Quick
      test_placement;
    Alcotest.test_case "named fault targets arm on their shard" `Quick
      test_named_fault_targets_per_shard;
    Alcotest.test_case "deferred split receivers open in time" `Slow
      test_deferred_split_dead_letters;
    Alcotest.test_case "deferred split receivers over a lossy trunk" `Slow
      test_deferred_split_lossy_trunk;
  ]
