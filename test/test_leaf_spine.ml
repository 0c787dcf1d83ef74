module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Network = Xmp_net.Network
module LS = Xmp_net.Leaf_spine
module Tcp = Xmp_transport.Tcp

let disc () =
  Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 10)
    ~capacity_pkts:100

let mk ?(seed = 42) ?(leaves = 3) ?(spines = 2) ?(hosts_per_leaf = 2) () =
  let cluster =
    Net.Shard.create ~config:{ Sim.default_config with seed } ~shards:1 ()
  in
  let ls = LS.create ~cluster ~leaves ~spines ~hosts_per_leaf ~disc () in
  (Net.Shard.sim cluster 0, Net.Shard.net cluster 0, ls)

let test_structure () =
  let _sim, net, ls = mk () in
  Alcotest.(check int) "hosts" 6 ls.Net.Topology.n_hosts;
  (* 6 hosts + 3 leaves + 2 spines *)
  Alcotest.(check int) "nodes" 11 (Network.n_nodes net);
  Alcotest.(check int) "leaf links" 12
    (List.length (Network.links_tagged net "leaf"));
  Alcotest.(check int) "spine links" 12
    (List.length (Network.links_tagged net "spine"))

let test_locality_and_paths () =
  let _, net, ls = mk () in
  Alcotest.(check bool) "same leaf" true
    (ls.Net.Topology.locality ~src:0 ~dst:1 = Net.Topology.Inner_rack);
  Alcotest.(check bool) "cross leaf" true
    (ls.locality ~src:0 ~dst:2 = Net.Topology.Inter_rack);
  Alcotest.(check int) "1 path in leaf" 1 (ls.n_paths ~src:0 ~dst:1);
  Alcotest.(check int) "spines paths across" 2 (ls.n_paths ~src:0 ~dst:4);
  Alcotest.(check string) "host index is node id" "h2.1"
    (Net.Node.name (Network.node net 5))

let test_all_pairs_routable () =
  let sim, net, ls = mk ~leaves:4 ~spines:3 ~hosts_per_leaf:3 () in
  let n = ls.Net.Topology.n_hosts in
  let ok = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        for path = 0 to ls.n_paths ~src ~dst - 1 do
          let got = ref false in
          Network.register_endpoint net ~host:dst ~flow:1 ~subflow:0
            (fun _ -> got := true);
          Net.Node.send (Network.node net src)
            (Net.Packet.data ~flow:1 ~subflow:0 ~src ~dst ~path ~seq:0
               ~ect:false ~cwr:false ~ts:0);
          Sim.run sim;
          if !got then incr ok
          else Alcotest.failf "unroutable %d->%d path %d" src dst path
        done
    done
  done;
  Alcotest.(check bool) "all delivered" true (!ok > 0)

let test_spine_diversity () =
  (* distinct selectors cross distinct spines *)
  let sim, net, _ = mk () in
  Network.register_endpoint net ~host:4 ~flow:1 ~subflow:0 (fun _ -> ());
  for path = 0 to 1 do
    Net.Node.send (Network.node net 0)
      (Net.Packet.data ~flow:1 ~subflow:0 ~src:0 ~dst:4 ~path ~seq:0
         ~ect:false ~cwr:false ~ts:0)
  done;
  Sim.run sim;
  let used =
    List.filter
      (fun l -> Net.Link.packets_sent l > 0)
      (Network.links_tagged net "spine")
  in
  (* each probe crosses an up link and a down link, all distinct *)
  Alcotest.(check int) "4 distinct spine links" 4 (List.length used)

let test_xmp_flow_over_leaf_spine () =
  (* an XMP flow with one subflow per spine should aggregate close to its
     1 Gbps host-link limit (the spine tier is 10 Gbps and unloaded) *)
  let sim, net, _ = mk ~seed:19 ~leaves:2 ~spines:2 ~hosts_per_leaf:2 () in
  let f = Xmp_core.Xmp.flow ~net ~flow:1 ~src:0 ~dst:2 ~paths:[ 0; 1 ] () in
  Sim.run ~until:(Time.ms 300) sim;
  let goodput =
    float_of_int
      (Xmp_mptcp.Mptcp_flow.segments_acked f * Net.Packet.payload_bytes * 8)
    /. 0.3
  in
  Alcotest.(check bool)
    (Printf.sprintf "near host-link rate (%.0f Mbps)" (goodput /. 1e6))
    true (goodput > 0.85 *. 1e9);
  Array.iter
    (fun conn ->
      Alcotest.(check bool) "both subflows active" true
        (Tcp.segments_acked conn > 0))
    (Xmp_mptcp.Mptcp_flow.subflows f)

let test_validation () =
  let cluster = Net.Shard.create ~shards:1 () in
  Alcotest.check_raises "bad params" (Invalid_argument "Leaf_spine.create")
    (fun () ->
      ignore (LS.create ~cluster ~leaves:0 ~spines:1 ~hosts_per_leaf:1 ~disc ()))

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "locality and paths" `Quick test_locality_and_paths;
    Alcotest.test_case "all pairs routable" `Quick test_all_pairs_routable;
    Alcotest.test_case "spine diversity" `Quick test_spine_diversity;
    Alcotest.test_case "xmp flow over leaf-spine" `Quick
      test_xmp_flow_over_leaf_spine;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
