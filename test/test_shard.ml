(* Shard orchestrator: portal timing/delivery, epoch determinism, and
   the domains-1-vs-N byte-equality guarantee on the sharded fat-tree
   scenario. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Network = Xmp_net.Network
module Node = Xmp_net.Node
module Packet = Xmp_net.Packet
module Queue_disc = Xmp_net.Queue_disc
module Shard = Xmp_net.Shard

let disc () = Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:100

(* Two shards, one host each, a portal in each direction. *)
let make_pair ~delay =
  let cluster = Shard.create ~shards:2 () in
  let a = Network.add_host_at (Shard.net cluster 0) ~id:0 ~name:"a" in
  let b = Network.add_host_at (Shard.net cluster 1) ~id:1 ~name:"b" in
  Node.set_route a (fun _ -> 0);
  Node.set_route b (fun _ -> 0);
  let rate = Net.Units.gbps 1. in
  ignore
    (Shard.portal cluster ~src:(0, a) ~dst:(1, b) ~rate ~delay ~disc ());
  ignore
    (Shard.portal cluster ~src:(1, b) ~dst:(0, a) ~rate ~delay ~disc ());
  (cluster, a, b)

let test_portal_delivery () =
  let delay = Time.us 40 in
  let cluster, a, _b = make_pair ~delay in
  let arrivals = ref [] in
  Network.register_endpoint (Shard.net cluster 1) ~host:1 ~flow:7 ~subflow:0
    (fun p ->
      arrivals :=
        (Packet.seq p, Sim.now (Shard.sim cluster 1)) :: !arrivals);
  for seq = 0 to 4 do
    let p =
      Packet.data ~flow:7 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq ~ect:true
        ~cwr:false ~ts:Time.zero
    in
    Node.send a p
  done;
  Shard.run ~until:(Time.ms 10) cluster;
  let arrivals = List.rev !arrivals in
  Alcotest.(check int) "all packets crossed" 5 (List.length arrivals);
  Alcotest.(check int) "portal mail counted" 5 (Shard.mail_injected cluster);
  (* serialization (12 us at 1 Gbps for 1500 B) then the portal delay *)
  let tx = Net.Units.tx_time (Net.Units.gbps 1.) ~bytes:Packet.data_wire_bytes in
  List.iteri
    (fun i (seq, at) ->
      Alcotest.(check int) "in-order seq" i seq;
      let expect = Time.add (Time.mul tx (i + 1)) delay in
      Alcotest.(check int) "arrival = serialize + delay" expect at)
    arrivals

let test_portal_rejects_bad_args () =
  let cluster, a, b = make_pair ~delay:(Time.us 10) in
  let rate = Net.Units.gbps 1. in
  Alcotest.check_raises "same shard"
    (Invalid_argument "Shard.portal: endpoints in the same shard")
    (fun () ->
      ignore
        (Shard.portal cluster ~src:(0, a) ~dst:(0, a) ~rate
           ~delay:(Time.us 10) ~disc ()));
  Alcotest.check_raises "zero delay"
    (Invalid_argument
       "Shard.portal: delay must be positive (it is the lookahead)")
    (fun () ->
      ignore
        (Shard.portal cluster ~src:(0, a) ~dst:(1, b) ~rate ~delay:Time.zero
           ~disc ()))

(* Shard.connect is a link pair within a shard and a portal pair across
   shards; only the latter bounds the epoch. *)
let test_connect () =
  let cluster = Shard.create ~shards:2 () in
  let net0 = Shard.net cluster 0 and net1 = Shard.net cluster 1 in
  let a = Network.add_host_at net0 ~id:0 ~name:"a" in
  let b = Network.add_switch_at net0 ~id:1 ~name:"b" in
  let c = Network.add_host_at net1 ~id:2 ~name:"c" in
  let rate = Net.Units.gbps 1. in
  let ab, ba =
    Shard.connect cluster ~rate ~delay:(Time.us 20) ~disc (0, a) (0, b)
  in
  Alcotest.(check (pair string string)) "local pair, forward first"
    ("a->b", "b->a") (Net.Link.name ab, Net.Link.name ba);
  Alcotest.(check int) "two links in shard 0" 2
    (List.length (Network.links net0));
  Alcotest.(check int) "no portal yet" Time.infinity (Shard.epoch_delta cluster);
  let bc, cb =
    Shard.connect cluster ~tag:"x" ~rate ~delay:(Time.us 30) ~disc (0, b)
      (1, c)
  in
  Alcotest.(check (pair string string)) "portal pair, forward first"
    ("b->c", "c->b") (Net.Link.name bc, Net.Link.name cb);
  Alcotest.(check (pair int int)) "each direction in its source shard"
    (3, 1)
    (List.length (Network.links net0), List.length (Network.links net1));
  Alcotest.(check int) "portal delay lowers the epoch" (Time.us 30)
    (Shard.epoch_delta cluster);
  Alcotest.(check (pair int int)) "ports in creation order" (1, 0)
    (Node.n_ports b - 1, Node.n_ports c - 1)

(* A ping-pong chain across the barrier: every reply depends on mail
   from the previous epoch, so the count proves epochs interleave
   causally rather than running each shard to the horizon once. *)
let test_ping_pong () =
  let delay = Time.us 50 in
  let cluster, a, b = make_pair ~delay in
  let pings = ref 0 in
  let bounce node seq' =
    let p =
      Packet.data ~flow:1 ~subflow:0
        ~src:(Node.id node)
        ~dst:(1 - Node.id node)
        ~path:0 ~seq:seq' ~ect:false ~cwr:false ~ts:Time.zero
    in
    Node.send node p
  in
  Network.register_endpoint (Shard.net cluster 1) ~host:1 ~flow:1 ~subflow:0
    (fun p -> bounce b (Packet.seq p + 1));
  Network.register_endpoint (Shard.net cluster 0) ~host:0 ~flow:1 ~subflow:0
    (fun p ->
      incr pings;
      bounce a (Packet.seq p + 1));
  bounce a 0;
  Shard.run ~until:(Time.ms 1) cluster;
  (* each round trip costs two serializations (12 us) and two portal
     delays: 124 us per lap, so a 1 ms horizon fits 8 full round trips *)
  Alcotest.(check bool) "several round trips" true (!pings >= 7);
  let lap =
    2
    * (Net.Units.tx_time (Net.Units.gbps 1.) ~bytes:Packet.data_wire_bytes
      + delay)
  in
  Alcotest.(check int) "causal round-trip count" (Time.ms 1 / lap) !pings

let capture_fig4_sharded ~domains () =
  Xmp_runner.Runner.capture (fun () ->
      Xmp_experiments.Fig4_sharded.run_and_print ~scale:0.05 ~domains ())

(* Spawning a domain latches the runtime into multicore mode for the
   rest of the process (the backup thread outlives Domain.join), and
   Unix.fork refuses to run after that — which would break every
   Runner process-pool test later in this binary. So the multi-domain
   run happens in a forked child: the child spawns its crew and
   _exits, the parent never leaves single-domain mode. *)
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
    (* _exit: skip the inherited at_exit handlers (alcotest, dune) *)
    Unix._exit (if String.length out > 0 then 0 else 1)
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "sharded child did not exit cleanly");
    out

let test_domains_byte_equality () =
  let one = capture_fig4_sharded ~domains:1 () in
  let four = capture_in_child (capture_fig4_sharded ~domains:4) in
  Alcotest.(check bool) "domains=1 output non-trivial"
    true
    (String.length one > 200);
  Alcotest.(check string) "domains=1 and domains=4 byte-identical" one four

let rate10 = Net.Units.gbps 10.
let tx10 = Net.Units.tx_time rate10 ~bytes:Packet.data_wire_bytes

(* Equal-arrival tie-break. Shards 1 and 2 each send four packets (flow =
   source shard) to host 0 on shard 0 at 10 Gbps, all emitted inside the
   first epoch. With [skew] = 0 the two portals have equal delays, so
   packet i of either shard lands on the same nanosecond. With [skew] =
   one serialization, shard 2's portal is that much slower, so its packet
   i lands with shard 1's packet i+1, which shard 1 emitted later. The
   trace is printable so the domains-3 run can be compared byte for
   byte. *)
let tie_trace ~skew ~domains () =
  let cluster = Shard.create ~shards:3 () in
  let a = Network.add_host_at (Shard.net cluster 0) ~id:0 ~name:"a" in
  let log = Buffer.create 256 in
  for s = 1 to 2 do
    let node =
      Network.add_host_at (Shard.net cluster s) ~id:s
        ~name:(Printf.sprintf "s%d" s)
    in
    Node.set_route node (fun _ -> 0);
    let delay = Time.add (Time.us 10) (if s = 2 then skew else Time.zero) in
    ignore
      (Shard.portal cluster ~src:(s, node) ~dst:(0, a) ~rate:rate10 ~delay
         ~disc ());
    Network.register_endpoint (Shard.net cluster 0) ~host:0 ~flow:s ~subflow:0
      (fun p ->
        Buffer.add_string log
          (Printf.sprintf "%d.%d@%d " (Packet.flow p) (Packet.seq p)
             (Sim.now (Shard.sim cluster 0))));
    for seq = 0 to 3 do
      Node.send node
        (Packet.data ~flow:s ~subflow:0 ~src:s ~dst:0 ~path:0 ~seq ~ect:false
           ~cwr:false ~ts:Time.zero)
    done
  done;
  Shard.run ~domains ~until:(Time.us 100) cluster;
  Buffer.contents log

let test_equal_arrival_order () =
  let d = Time.us 10 in
  let at i = Time.add (Time.mul tx10 (i + 1)) d in
  let entry (flow, seq, t) = Printf.sprintf "%d.%d@%d " flow seq t in
  let expect l = String.concat "" (List.map entry l) in
  let aligned = tie_trace ~skew:Time.zero ~domains:1 () in
  Alcotest.(check string) "equal delays: shard 1 first at each instant"
    (expect
       (List.concat_map
          (fun i -> [ (1, i, at i); (2, i, at i) ])
          [ 0; 1; 2; 3 ]))
    aligned;
  let skewed = tie_trace ~skew:tx10 ~domains:1 () in
  Alcotest.(check string)
    "shard 1's later emission still precedes shard 2's at the same instant"
    (expect
       ([ (1, 0, at 0) ]
       @ List.concat_map
           (fun i -> [ (1, i + 1, at (i + 1)); (2, i, at (i + 1)) ])
           [ 0; 1; 2 ]
       @ [ (2, 3, at 4) ]))
    skewed;
  Alcotest.(check string) "same order at 3 domains" (aligned ^ skewed)
    (capture_in_child (fun () ->
         tie_trace ~skew:Time.zero ~domains:3 ()
         ^ tie_trace ~skew:tx10 ~domains:3 ()))

(* Mail across several barriers: a 35 us portal in a cluster whose epoch
   is 10 us (the reverse portal). A first burst of 10 packets drains and
   leaves the inbox ring's head mid-ring; a second burst of 50 then keeps
   about 29 packets in flight over four barriers, so the ring wraps and
   grows past 16 four-word records while wrapped. Every packet must
   still arrive at serialization end plus its portal's delay, in send
   order, in both directions. *)
let test_mail_across_barriers () =
  let cluster = Shard.create ~shards:2 () in
  let a = Network.add_host_at (Shard.net cluster 0) ~id:0 ~name:"a" in
  let b = Network.add_host_at (Shard.net cluster 1) ~id:1 ~name:"b" in
  Node.set_route a (fun _ -> 0);
  Node.set_route b (fun _ -> 0);
  let slow = Time.us 35 and fast = Time.us 10 in
  ignore
    (Shard.portal cluster ~src:(0, a) ~dst:(1, b) ~rate:rate10 ~delay:slow
       ~disc ());
  ignore
    (Shard.portal cluster ~src:(1, b) ~dst:(0, a) ~rate:rate10 ~delay:fast
       ~disc ());
  Alcotest.(check int) "epoch is the faster portal" fast
    (Shard.epoch_delta cluster);
  let bursts = [ (Time.zero, 10); (Time.us 100, 50) ] in
  let check_direction ~src ~dst ~delay =
    let arrivals = ref [] in
    let dst_id = Node.id dst and src_id = Node.id src in
    Network.register_endpoint (Shard.net cluster dst_id) ~host:dst_id ~flow:3
      ~subflow:0 (fun p ->
        arrivals :=
          (Packet.seq p, Sim.now (Shard.sim cluster dst_id)) :: !arrivals);
    let expected = ref [] and seq0 = ref 0 in
    List.iter
      (fun (start, n) ->
        let first = !seq0 in
        Sim.at (Shard.sim cluster src_id) start (fun () ->
            for seq = first to first + n - 1 do
              Node.send src
                (Packet.data ~flow:3 ~subflow:0 ~src:src_id ~dst:dst_id
                   ~path:0 ~seq ~ect:false ~cwr:false ~ts:Time.zero)
            done);
        for j = 0 to n - 1 do
          expected :=
            (first + j, start + Time.mul tx10 (j + 1) + delay) :: !expected
        done;
        seq0 := first + n)
      bursts;
    fun () ->
      Alcotest.(check (list (pair int int)))
        (Node.name src ^ ": FIFO at serialization end + delay")
        (List.rev !expected) (List.rev !arrivals)
  in
  let check_ab = check_direction ~src:a ~dst:b ~delay:slow in
  let check_ba = check_direction ~src:b ~dst:a ~delay:fast in
  Shard.run ~until:(Time.ms 1) cluster;
  check_ab ();
  check_ba ();
  Alcotest.(check int) "every packet was mail" 120
    (Shard.mail_injected cluster)

(* Mail of every width across barriers: the cluster of [mail across
   several barriers], with each direction carrying a mixed stream. Packet i is, by
   [i mod 6], data with ECT, data with ECT/CWR/CE, or an ACK with 0 to
   3 SACK blocks and a nonzero ECE count: mail records 4, 4, 4, 5, 6
   and 7 words wide. The first burst (23 words) leaves the slow
   portal's 32-word inbox head at word 23; the second burst's second
   record then straddles the end of the ring, and its sixth grows the
   ring while wrapped. Every field must arrive as sent, at
   serialization end plus the portal's delay, in send order. *)
let test_mail_of_every_width () =
  let cluster = Shard.create ~shards:2 () in
  let a = Network.add_host_at (Shard.net cluster 0) ~id:0 ~name:"a" in
  let b = Network.add_host_at (Shard.net cluster 1) ~id:1 ~name:"b" in
  Node.set_route a (fun _ -> 0);
  Node.set_route b (fun _ -> 0);
  let slow = Time.us 35 and fast = Time.us 10 in
  ignore
    (Shard.portal cluster ~src:(0, a) ~dst:(1, b) ~rate:rate10 ~delay:slow
       ~disc ());
  ignore
    (Shard.portal cluster ~src:(1, b) ~dst:(0, a) ~rate:rate10 ~delay:fast
       ~disc ());
  let fields p =
    Format.asprintf "%a ts=%d ect=%b cwr=%b sack=%s" Packet.pp p
      (Packet.ts p) (Packet.ect p) (Packet.cwr p)
      (String.concat ","
         (List.map (fun (x, y) -> Printf.sprintf "%d-%d" x y) (Packet.sack p)))
  in
  let packet ~src ~dst i =
    let subflow = i mod 3 and path = i mod 7 and ts = (1000 * i) + 17 in
    match i mod 6 with
    | (0 | 1) as k ->
      let p =
        Packet.data ~flow:3 ~subflow ~src ~dst ~path ~seq:i ~ect:true
          ~cwr:(k = 1) ~ts
      in
      if k = 1 then Packet.set_ce p;
      p
    | k ->
      Packet.ack
        ~sack:(List.init (k - 2) (fun j -> (i + (10 * j), i + (10 * j) + 3)))
        ~flow:3 ~subflow ~src ~dst ~path ~seq:i ~ece_count:(1 + (i mod 5))
        ~ts ()
  in
  let bursts = [ (Time.zero, 5); (Time.us 100, 50) ] in
  let check_direction ~src ~dst ~delay =
    let arrivals = ref [] in
    let dst_id = Node.id dst and src_id = Node.id src in
    for subflow = 0 to 2 do
      Network.register_endpoint (Shard.net cluster dst_id) ~host:dst_id
        ~flow:3 ~subflow (fun p ->
          arrivals := (fields p, Sim.now (Shard.sim cluster dst_id)) :: !arrivals)
    done;
    let expected = ref [] and seq0 = ref 0 in
    List.iter
      (fun (start, n) ->
        let first = !seq0 in
        Sim.at (Shard.sim cluster src_id) start (fun () ->
            for i = first to first + n - 1 do
              Node.send src (packet ~src:src_id ~dst:dst_id i)
            done);
        let finish = ref start in
        for i = first to first + n - 1 do
          let p = packet ~src:src_id ~dst:dst_id i in
          finish :=
            !finish + Net.Units.tx_time rate10 ~bytes:(Packet.size p);
          expected := (fields p, !finish + delay) :: !expected;
          Packet.release p
        done;
        seq0 := first + n)
      bursts;
    fun () ->
      Alcotest.(check (list (pair string int)))
        (Node.name src ^ ": every field, FIFO at serialization end + delay")
        (List.rev !expected) (List.rev !arrivals)
  in
  let check_ab = check_direction ~src:a ~dst:b ~delay:slow in
  let check_ba = check_direction ~src:b ~dst:a ~delay:fast in
  Shard.run ~until:(Time.ms 1) cluster;
  check_ab ();
  check_ba ();
  Alcotest.(check int) "every packet was mail" 110
    (Shard.mail_injected cluster)

(* Portal egresses have zero delay, and a zero-delay link hands the
   packet to its receiver inside the serialization-complete event: one
   event per packet, at serialization end. *)
let test_zero_delay_link () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let a = Network.add_host net ~name:"a" in
  let b = Network.add_host net ~name:"b" in
  ignore (Network.connect net ~rate:rate10 ~delay:Time.zero ~disc a b);
  Node.set_route a (fun _ -> 0);
  let arrivals = ref [] in
  Network.register_endpoint net ~host:(Node.id b) ~flow:1 ~subflow:0 (fun p ->
      arrivals := (Packet.seq p, Sim.now sim) :: !arrivals);
  let n = 5 in
  for seq = 0 to n - 1 do
    Node.send a
      (Packet.data ~flow:1 ~subflow:0 ~src:(Node.id a) ~dst:(Node.id b)
         ~path:0 ~seq ~ect:false ~cwr:false ~ts:Time.zero)
  done;
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "delivered at serialization end"
    (List.init n (fun i -> (i, Time.mul tx10 (i + 1))))
    (List.rev !arrivals);
  Alcotest.(check int) "one event per packet" n (Sim.events_executed sim)

let test_sharded_scenario_progress () =
  let r = Xmp_experiments.Fig4_sharded.run ~scale:0.05 ~domains:1 ~beta:4 () in
  Alcotest.(check bool) "simulated real work" true (r.events > 100_000);
  Alcotest.(check bool) "portal mail flowed" true (r.mail > 1_000);
  let moved = Array.exists (fun x -> x > 0.05) in
  List.iter
    (fun (name, series) ->
      Alcotest.(check bool) (name ^ " carried traffic") true (moved series))
    r.rates;
  (* the background load on agg 0 pushes Flow 2 toward subflow 2 *)
  Alcotest.(check bool) "flow 2 shifted away from loaded uplink" true
    (r.loaded_share < r.recovered_share)

(* A closed cluster refuses to run, and its sims to schedule; links and
   counters stay readable. *)
let test_closed_cluster () =
  let cluster, a, _ = make_pair ~delay:(Time.us 40) in
  Node.send a
    (Packet.data ~flow:7 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq:0 ~ect:true
       ~cwr:false ~ts:Time.zero);
  Shard.run ~until:(Time.us 30) cluster;
  let events = Shard.events_executed cluster in
  Shard.close cluster;
  Alcotest.(check int) "events still read" events
    (Shard.events_executed cluster);
  Alcotest.(check int) "nothing pending" 0
    (Sim.pending (Shard.sim cluster 0) + Sim.pending (Shard.sim cluster 1));
  Alcotest.(check int) "links still read" 1
    (List.length (Network.links (Shard.net cluster 0)));
  Alcotest.check_raises "run refused"
    (Invalid_argument "Shard.run: the cluster is closed") (fun () ->
      Shard.run ~until:(Time.ms 1) cluster);
  Alcotest.check_raises "scheduling refused"
    (Invalid_argument "Sim: scheduling: the sim is closed") (fun () ->
      Sim.at (Shard.sim cluster 1) (Time.ms 1) ignore);
  Shard.close cluster

let suite =
  [
    Alcotest.test_case "portal delivery and timing" `Quick
      test_portal_delivery;
    Alcotest.test_case "portal argument validation" `Quick
      test_portal_rejects_bad_args;
    Alcotest.test_case "cross-barrier ping-pong is causal" `Quick
      test_ping_pong;
    Alcotest.test_case "sharded fig4 makes progress" `Slow
      test_sharded_scenario_progress;
    Alcotest.test_case "domains 1 vs 4 byte equality" `Slow
      test_domains_byte_equality;
    Alcotest.test_case "connect: links within, portals across" `Quick
      test_connect;
    Alcotest.test_case "equal arrivals: source shard, then emission" `Quick
      test_equal_arrival_order;
    Alcotest.test_case "mail across several barriers" `Quick
      test_mail_across_barriers;
    Alcotest.test_case "zero-delay link: one event per packet" `Quick
      test_zero_delay_link;
    Alcotest.test_case "mail of every width across barriers" `Quick
      test_mail_of_every_width;
    Alcotest.test_case "closed cluster refuses to run" `Quick
      test_closed_cluster;
  ]
