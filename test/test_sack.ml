(* Selective acknowledgement behaviour. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Reno = Xmp_transport.Reno
module Testbed = Xmp_net.Testbed

let make_rig ?(capacity = 6) () =
  let sim = Sim.create ~config:{ Sim.default_config with seed = 47 } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail
      ~capacity_pkts:capacity
  in
  let tb =
    Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.mbps 100.; delay = Time.us 50; disc } ]
      ~access_delay:(Time.us 10) ()
  in
  (sim, net, tb)

let run_transfer ~sack ~segments =
  let sim, net, tb = make_rig () in
  let config = { Tcp.default_config with sack } in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(fun v -> Reno.make v)
      ~config
      ~source:(Tcp.Limited (ref segments))
      ()
  in
  Sim.run ~until:(Time.sec 20.) sim;
  conn

let test_sack_completes () =
  let conn = run_transfer ~sack:true ~segments:500 in
  Alcotest.(check bool) "complete" true (Tcp.is_complete conn);
  Alcotest.(check int) "exact bytes" 500 (Tcp.segments_acked conn)

let test_sack_reduces_retransmissions () =
  let with_sack = run_transfer ~sack:true ~segments:500 in
  let without = run_transfer ~sack:false ~segments:500 in
  Alcotest.(check bool) "both complete" true
    (Tcp.is_complete with_sack && Tcp.is_complete without);
  Alcotest.(check bool) "losses happened in both" true
    (Tcp.retransmits with_sack > 0 && Tcp.retransmits without > 0);
  Alcotest.(check bool)
    (Printf.sprintf "sack retransmits less (%d vs %d)"
       (Tcp.retransmits with_sack) (Tcp.retransmits without))
    true
    (Tcp.retransmits with_sack <= Tcp.retransmits without)

let test_sack_skips_delivered_data_after_rto () =
  (* force an RTO with a window full of data of which only the first
     packet is lost: without SACK, go-back-N resends everything; with
     SACK only the hole goes out *)
  let sim, net, tb = make_rig ~capacity:100 () in
  let config =
    (* disable fast retransmit so the repair must come from the RTO path *)
    { Tcp.default_config with dupack_threshold = max_int; sack = true }
  in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(fun v -> Reno.make v)
      ~config
      ~source:(Tcp.Limited (ref 40))
      ()
  in
  (* kill the very first data packet by flapping the link during its
     flight; the rest of the initial window passes after restoration *)
  Sim.at sim (Time.us 1) (fun () -> Bottleneck.set_up net 0 false);
  Sim.at sim (Time.us 30) (fun () -> Bottleneck.set_up net 0 true);
  Sim.run ~until:(Time.sec 5.) sim;
  Alcotest.(check bool) "complete" true (Tcp.is_complete conn);
  Alcotest.(check bool) "RTO was involved" true (Tcp.timeouts conn >= 1);
  (* only the handful of killed packets get resent, not the full 40 *)
  Alcotest.(check bool)
    (Printf.sprintf "few retransmissions (%d)" (Tcp.retransmits conn))
    true
    (Tcp.retransmits conn < 10)

let test_receiver_advertises_blocks () =
  (* drop data segment 1 on the wire (once) and watch the ACK stream: the
     receiver must advertise the out-of-order block above the hole *)
  let sim = Sim.create ~config:{ Sim.default_config with seed = 3 } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail ~capacity_pkts:50
  in
  let tb =
    Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.gbps 1.; delay = Time.us 10; disc } ]
      ()
  in
  (* with one host per side, nodes are: left 0, right 1, IN 2, OUT 3 *)
  let in_node = Net.Network.node net 2 in
  let out_node = Net.Network.node net 3 in
  Alcotest.(check string) "wiring assumption" "IN1" (Net.Node.name in_node);
  let fwd = Bottleneck.fwd net 0 in
  let rev = Bottleneck.rev net 0 in
  let dropped_once = ref false in
  Net.Link.set_receiver fwd (fun p ->
      if (Net.Packet.seq p) = 1 && not !dropped_once then begin
        dropped_once := true;
        Net.Packet.release p
      end
      else Net.Node.receive out_node p);
  (* dispatch releases delivered packets back to the pool, so capture the
     ack fields here rather than retaining the records *)
  let acks = ref [] in
  Net.Link.set_receiver rev (fun p ->
      acks := (Net.Packet.seq p, Net.Packet.sack p) :: !acks;
      Net.Node.receive in_node p);
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(fun v -> Reno.make v)
      ~config:{ Tcp.default_config with sack = true }
      ~source:(Tcp.Limited (ref 8))
      ()
  in
  Sim.run ~until:(Time.sec 2.) sim;
  Alcotest.(check bool) "flow recovered and completed" true
    (Tcp.is_complete conn);
  let with_blocks = List.filter (fun (_, sack) -> sack <> []) !acks in
  Alcotest.(check bool) "some ACK carried SACK blocks" true
    (with_blocks <> []);
  List.iter
    (fun (seq, sack) ->
      Alcotest.(check int) "cumulative ack parked at the hole" 1 seq;
      match sack with
      | [ (start, stop) ] ->
        Alcotest.(check int) "block starts above the hole" 2 start;
        Alcotest.(check bool) "block is sane" true (stop > start && stop <= 8)
      | other ->
        Alcotest.failf "unexpected blocks (%d)" (List.length other))
    with_blocks

let suite =
  [
    Alcotest.test_case "sack transfer completes" `Quick test_sack_completes;
    Alcotest.test_case "sack reduces retransmissions" `Quick
      test_sack_reduces_retransmissions;
    Alcotest.test_case "sack skips delivered data after RTO" `Quick
      test_sack_skips_delivered_data_after_rto;
    Alcotest.test_case "receiver advertises blocks" `Quick
      test_receiver_advertises_blocks;
  ]
