module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Units = Xmp_net.Units
module Packet = Xmp_net.Packet
module Link = Xmp_net.Link
module Queue_disc = Xmp_net.Queue_disc

let mk_data ?(size_seq = 0) seq =
  ignore size_seq;
  Packet.data ~flow:0 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq
    ~ect:true ~cwr:false ~ts:0

let mk_link ?(rate = Units.gbps 1.) ?(delay = Time.us 10) ?(capacity = 10)
    ?(policy = Queue_disc.Droptail) sim =
  let disc = Queue_disc.create ~policy ~capacity_pkts:capacity in
  Link.create ~sim ~id:0 ~name:"test" ~rate ~delay ~disc ()

let test_delivery_timing () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let arrivals = ref [] in
  Link.set_receiver link (fun p -> arrivals := (Sim.now sim, (Packet.seq p)) :: !arrivals);
  Link.send link (mk_data 1);
  Sim.run sim;
  (* 1500B at 1Gbps = 12us serialization + 10us propagation = 22us *)
  Alcotest.(check (list (pair int int)))
    "arrival time"
    [ (Time.us 22, 1) ]
    !arrivals

let test_serialization_queueing () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let arrivals = ref [] in
  Link.set_receiver link (fun p ->
      arrivals := (Sim.now sim, (Packet.seq p)) :: !arrivals);
  (* two packets sent back to back: second is delayed by serialization of
     the first only (propagation pipelines) *)
  Link.send link (mk_data 1);
  Link.send link (mk_data 2);
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "pipelined arrivals"
    [ (Time.us 22, 1); (Time.us 34, 2) ]
    (List.rev !arrivals)

let test_queue_used_when_busy () =
  let sim = Sim.create () in
  let link = mk_link ~capacity:2 sim in
  let count = ref 0 in
  Link.set_receiver link (fun _ -> incr count);
  (* 1 transmitting + 2 queued + 1 dropped *)
  List.iter (fun s -> Link.send link (mk_data s)) [ 1; 2; 3; 4 ];
  Sim.run sim;
  Alcotest.(check int) "three delivered" 3 !count;
  Alcotest.(check int) "one dropped" 1 (Queue_disc.dropped (Link.disc link))

let test_bytes_and_utilization () =
  let sim = Sim.create () in
  let link = mk_link sim in
  Link.set_receiver link (fun _ -> ());
  List.iter (fun s -> Link.send link (mk_data s)) [ 1; 2 ];
  Sim.run sim;
  Alcotest.(check int) "bytes" 3000 (Link.bytes_sent link);
  Alcotest.(check int) "packets" 2 (Link.packets_sent link);
  let util = Link.utilization link ~duration:(Time.us 24) in
  Alcotest.(check (float 1e-6)) "utilization" 1.0 util

let test_link_down () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let count = ref 0 in
  Link.set_receiver link (fun _ -> incr count);
  Link.send link (mk_data 1);
  Link.send link (mk_data 2);
  Link.send link (mk_data 3);
  (* take the link down mid-transmission: queued packets are discarded and
     the in-flight one is not delivered *)
  Sim.at sim (Time.us 1) (fun () -> Link.set_up link false);
  Sim.run sim;
  Alcotest.(check int) "nothing delivered" 0 !count;
  Alcotest.(check bool) "down" false (Link.is_up link);
  (* sends while down are dropped silently *)
  Link.send link (mk_data 4);
  Sim.run sim;
  Alcotest.(check int) "still nothing" 0 !count;
  (* bring it back *)
  Link.set_up link true;
  Link.send link (mk_data 5);
  Sim.run sim;
  Alcotest.(check int) "recovers" 1 !count

let test_marking_on_busy_link () =
  let sim = Sim.create () in
  let link = mk_link ~policy:(Queue_disc.Threshold_mark 1) ~capacity:10 sim in
  let ce_seen = ref 0 in
  Link.set_receiver link (fun p -> if (Packet.ce p) then incr ce_seen);
  for s = 1 to 5 do
    Link.send link (mk_data s)
  done;
  Sim.run sim;
  (* packet 1 transmits immediately; 2 arrives to queue len 0; 3 to len 1
     (not > 1); 4 to len 2 (mark); 5 to len 3 (mark) *)
  Alcotest.(check int) "CE-marked deliveries" 2 !ce_seen

let test_receiver_required () =
  let sim = Sim.create () in
  let link = mk_link sim in
  Link.send link (mk_data 1);
  Alcotest.check_raises "no receiver" (Failure "Link: receiver not attached")
    (fun () -> Sim.run sim)

(* A 40 ms / 1 Gbps link (a WAN trunk) holds a bandwidth-delay product
   of about 3 333 data packets in flight. Its wire ring starts empty and
   must grow through every doubling to hold them, then deliver all of
   them in send order, each one propagation delay after it serialized. *)
let test_wire_ring_grows_to_bdp () =
  let sim = Sim.create () in
  let n = 5000 in
  let link = mk_link ~delay:(Time.ms 40) ~capacity:n sim in
  let delivered = ref 0 and in_order = ref true and peak = ref 0 in
  let on_time = ref true in
  Link.set_receiver link (fun p ->
      if Packet.seq p <> !delivered then in_order := false;
      (* packet i finishes serializing at (i + 1) * 12 us *)
      if Sim.now sim <> Time.add (Time.ms 40) (Time.us (12 * (!delivered + 1)))
      then on_time := false;
      peak := Int.max !peak (Link.packets_sent link - !delivered);
      incr delivered);
  for s = 0 to n - 1 do
    Link.send link (mk_data s)
  done;
  Sim.run sim;
  Alcotest.(check int) "all delivered" n !delivered;
  Alcotest.(check bool) "in send order" true !in_order;
  Alcotest.(check bool) "each after 12 us + 40 ms" true !on_time;
  (* the first delivery, at 40.012 ms, finds 3 334 packets serialized *)
  Alcotest.(check int) "peak packets in flight" 3334 !peak;
  Alcotest.(check int) "no drops" 0 (Queue_disc.dropped (Link.disc link))

let suite =
  [
    Alcotest.test_case "delivery timing" `Quick test_delivery_timing;
    Alcotest.test_case "serialization pipelining" `Quick
      test_serialization_queueing;
    Alcotest.test_case "queue when busy" `Quick test_queue_used_when_busy;
    Alcotest.test_case "bytes and utilization" `Quick
      test_bytes_and_utilization;
    Alcotest.test_case "link down" `Quick test_link_down;
    Alcotest.test_case "marking behind busy link" `Quick
      test_marking_on_busy_link;
    Alcotest.test_case "receiver required" `Quick test_receiver_required;
    Alcotest.test_case "wire ring grows to a WAN BDP" `Quick
      test_wire_ring_grows_to_bdp;
  ]
