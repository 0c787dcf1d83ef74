(* Odds and ends: error paths and small contracts not covered elsewhere. *)

module Sim = Xmp_engine.Sim
module Net = Xmp_net
module Node = Xmp_net.Node
module Coupling = Xmp_mptcp.Coupling

let test_node_port_bounds () =
  let node = Node.create ~kind:Node.Switch ~id:0 ~name:"sw" in
  Alcotest.(check int) "no ports" 0 (Node.n_ports node);
  Alcotest.check_raises "port out of range" (Invalid_argument "Node.port")
    (fun () -> ignore (Node.port node 0))

let test_node_route_required () =
  let node = Node.create ~kind:Node.Switch ~id:0 ~name:"sw" in
  let p =
    Net.Packet.data ~flow:1 ~subflow:0 ~src:5 ~dst:9 ~path:0 ~seq:0
      ~ect:false ~cwr:false ~ts:0
  in
  Alcotest.(check bool) "no route installed fails loudly" true
    (try
       Node.receive node p;
       false
     with Failure _ -> true)

let test_uncoupled_independence () =
  let c =
    Coupling.uncoupled ~name:"reno" (fun v -> Xmp_transport.Reno.make v)
  in
  Alcotest.(check string) "name" "reno" c.Coupling.name;
  (* two members from the same group are independent controllers *)
  let group = c.Coupling.fresh () in
  let view =
    Xmp_transport.Cc.view ~srtt:(Xmp_engine.Time.us 100)
      ~min_rtt:(Xmp_engine.Time.us 100) ~now:(fun () -> 0) ()
  in
  let cc0 = Coupling.attach group view in
  let cc1 = Coupling.attach group view in
  Xmp_transport.Cc.on_ack cc0 ~ack:1 ~newly_acked:1 ~ce_count:0;
  Alcotest.(check bool) "state not shared" true
    (Xmp_transport.Cc.cwnd cc0 > Xmp_transport.Cc.cwnd cc1)

let test_testbed_host_bounds () =
  let sim = Sim.create () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail ~capacity_pkts:10
  in
  let tb =
    Net.Testbed.create ~net ~n_left:2 ~n_right:1
      ~bottlenecks:
        [
          {
            Net.Testbed.rate = Net.Units.mbps 100.;
            delay = Xmp_engine.Time.us 10;
            disc;
          };
        ]
      ()
  in
  Alcotest.check_raises "left out of range"
    (Invalid_argument "Testbed.left_id") (fun () ->
      ignore (Net.Testbed.left_id tb 2));
  Alcotest.check_raises "right out of range"
    (Invalid_argument "Testbed.right_id") (fun () ->
      ignore (Net.Testbed.right_id tb 1))

let test_mptcp_add_subflow_after_complete () =
  let sim = Sim.create () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail ~capacity_pkts:50
  in
  let tb =
    Net.Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [
          {
            Net.Testbed.rate = Net.Units.mbps 100.;
            delay = Xmp_engine.Time.us 10;
            disc;
          };
        ]
      ()
  in
  let f =
    Xmp_mptcp.Mptcp_flow.create ~net ~flow:1
      ~src:(Net.Testbed.left_id tb 0)
      ~dst:(Net.Testbed.right_id tb 0)
      ~paths:[ 0 ]
      ~coupling:
        (Coupling.uncoupled ~name:"reno" (fun v ->
             Xmp_transport.Reno.make v))
      ~size_segments:5 ()
  in
  Sim.run sim;
  Alcotest.(check bool) "complete" true (Xmp_mptcp.Mptcp_flow.is_complete f);
  Alcotest.check_raises "add after complete"
    (Invalid_argument "Mptcp_flow.add_subflow: flow already complete")
    (fun () -> ignore (Xmp_mptcp.Mptcp_flow.add_subflow f ~path:0))

let suite =
  [
    Alcotest.test_case "node port bounds" `Quick test_node_port_bounds;
    Alcotest.test_case "node route required" `Quick test_node_route_required;
    Alcotest.test_case "uncoupled independence" `Quick
      test_uncoupled_independence;
    Alcotest.test_case "testbed host bounds" `Quick test_testbed_host_bounds;
    Alcotest.test_case "add_subflow after complete" `Quick
      test_mptcp_add_subflow_after_complete;
  ]
