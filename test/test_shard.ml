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
   leaves the FIFO's head mid-chunk; a second burst of 50 then keeps
   about 29 packets in flight over four barriers, across several
   chunks. Every packet must still arrive at serialization end plus its
   portal's delay, in send order, in both directions. *)
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

(* Every field of a packet, printed. *)
let fields p =
  Format.asprintf "%a ts=%d ect=%b cwr=%b ece=%d sack=%s" Packet.pp p
    (Packet.ts p) (Packet.ect p) (Packet.cwr p) (Packet.ece_count p)
    (String.concat ","
       (List.map (fun (x, y) -> Printf.sprintf "%d-%d" x y) (Packet.sack p)))

(* Mail of every width across barriers: the cluster of [mail across
   several barriers], with each direction carrying a mixed stream. Packet i is, by
   [i mod 6], data with ECT, data with ECT/CWR/CE, or an ACK with 0 to
   3 SACK blocks and a nonzero ECE count: packet words 4, 4, 4, 5, 6
   and 7 wide, records of 5 to 8 ints with the arrival. Every field
   must arrive as sent, at serialization end plus the portal's delay,
   in send order. *)
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

(* ---- portal FIFOs ---- *)

(* Packet [i] of a mixed stream, by [i mod 7]: data with ECT, data with
   ECT/CWR/CE, or an ACK with 0 to 3 SACK blocks, and a second 3-block
   ACK. With its arrival word a record is 5, 5, 5, 6, 7, 8 or 8 ints, so
   some records do not fit the room a chunk has left. *)
let mixed_packet ~flow ~src ~dst i =
  let subflow = i mod 3 and path = i mod 7 and ts = (1000 * i) + 17 in
  match i mod 7 with
  | (0 | 1) as k ->
    let p =
      Packet.data ~flow ~subflow ~src ~dst ~path ~seq:i ~ect:true ~cwr:(k = 1)
        ~ts
    in
    if k = 1 then Packet.set_ce p;
    p
  | k ->
    Packet.ack
      ~sack:
        (List.init (Int.min 3 (k - 2)) (fun j ->
             (i + (10 * j), i + (10 * j) + 3)))
      ~flow ~subflow ~src ~dst ~path ~seq:i ~ece_count:(1 + (i mod 5)) ~ts ()

(* A two-shard rig: host [h] sits on shard [h mod 2] and has one portal,
   of delay [delays.(h)], to host [h lxor 1] on the other shard. Hosts
   below [senders] each send [count] {!mixed_packet}s at 10 Gbps, [batch]
   at a time every [gap], from time [offset h]. *)
let stream_rig ?(senders = max_int) ?(offset = fun _ -> Time.zero) ~delays
    ~count ~batch ~gap () =
  let n = Array.length delays in
  let cluster = Shard.create ~shards:2 () in
  let hosts =
    Array.init n (fun h ->
        Network.add_host_at
          (Shard.net cluster (h mod 2))
          ~id:h ~name:(Printf.sprintf "h%d" h))
  in
  let logs = Array.init n (fun _ -> Buffer.create 1024) in
  let expected = Array.init n (fun _ -> Buffer.create 1024) in
  let entry p at = Printf.sprintf "%s @%d\n" (fields p) at in
  Array.iteri
    (fun h node ->
      let dst = h lxor 1 in
      Node.set_route node (fun _ -> 0);
      ignore
        (Shard.portal cluster
           ~src:(h mod 2, node)
           ~dst:(dst mod 2, hosts.(dst))
           ~rate:rate10 ~delay:delays.(h) ~disc ());
      for subflow = 0 to 2 do
        Network.register_endpoint
          (Shard.net cluster (dst mod 2))
          ~host:dst ~flow:h ~subflow
          (fun p ->
            Buffer.add_string logs.(dst)
              (entry p (Sim.now (Shard.sim cluster (dst mod 2)))))
      done;
      if h < senders then begin
        let finish = ref Time.zero in
        for b = 0 to (count / batch) - 1 do
          let start = Time.add (offset h) (Time.mul gap b) in
          Sim.at (Shard.sim cluster (h mod 2)) start (fun () ->
              for i = b * batch to ((b + 1) * batch) - 1 do
                Node.send node (mixed_packet ~flow:h ~src:h ~dst i)
              done);
          finish := Time.max !finish start;
          for i = b * batch to ((b + 1) * batch) - 1 do
            let p = mixed_packet ~flow:h ~src:h ~dst i in
            finish := !finish + Net.Units.tx_time rate10 ~bytes:(Packet.size p);
            Buffer.add_string expected.(dst) (entry p (!finish + delays.(h)));
            Packet.release p
          done
        done
      end)
    hosts;
  let contents bufs = String.concat "" (Array.to_list (Array.map Buffer.contents bufs)) in
  (cluster, (fun () -> contents logs), fun () -> contents expected)

(* Runs [stream_rig] to [until] at [domains] and checks every field and
   arrival against the portals' timing; returns the arrivals. *)
let stream_trace ~domains ~delays ~count ~batch ~gap ~until () =
  let cluster, arrived, expected =
    stream_rig ~delays ~count ~batch ~gap ()
  in
  Shard.run ~domains ~until cluster;
  let arrived = arrived () in
  Alcotest.(check string)
    (Printf.sprintf "domains %d: every field, at serialization end + delay"
       domains)
    (expected ()) arrived;
  Alcotest.(check int) "every packet was mail"
    (count * Array.length delays)
    (Shard.mail_injected cluster);
  arrived

let check_stream ~delays ~count ~batch ~gap ~until =
  let one = stream_trace ~domains:1 ~delays ~count ~batch ~gap ~until () in
  Alcotest.(check string) "domains 1 = domains 2" one
    (capture_in_child (stream_trace ~domains:2 ~delays ~count ~batch ~gap ~until))

(* Bursts of 50 mixed records put up to 350 ints in a portal's FIFO at
   once, so records fill chunks of every size to their ends, and a
   record that does not fit a chunk's room starts the next chunk. *)
let test_records_fill_chunks () =
  check_stream
    ~delays:[| Time.us 35; Time.us 10 |]
    ~count:400 ~batch:50 ~gap:(Time.us 100) ~until:(Time.ms 1)

(* Each shard sends over a portal of one epoch and one of four, which
   share the shard's chunks: the slow portal's mail lands four barriers
   after it is posted, while the fast portal hands chunks back every
   barrier. A chunk handed back before its records were read would be
   overwritten by later mail. With 100 us epochs the barriers carry
   over 512 mails, so on one domain the shards take each epoch in
   steps. *)
let test_delays_one_and_four_epochs () =
  let delays d = [| Time.mul d 4; d; d; Time.mul d 4 |] in
  check_stream ~delays:(delays (Time.us 10)) ~count:600 ~batch:20
    ~gap:(Time.us 30) ~until:(Time.ms 2);
  check_stream ~delays:(delays (Time.us 100)) ~count:2000 ~batch:50
    ~gap:(Time.us 30) ~until:(Time.ms 3)

(* The live words [make ()] keeps on its own: what dropping it frees.
   The packet pool is filled first, so every packet [make] takes comes
   from it and stays live with it. *)
let retained make =
  List.init 4096 (fun seq ->
      Packet.data ~flow:0 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq ~ect:false
        ~cwr:false ~ts:Time.zero)
  |> List.iter Packet.release;
  let held = ref (Some (make ())) in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity !held);
  held := None;
  Gc.full_major ();
  before - (Gc.stat ()).Gc.live_words

(* Portals that carry no mail take no chunk: with a second idle portal
   pair beside the busy one and the first idle pair, a rig grows by
   exactly as many words over the same run as without it. *)
let test_idle_portals_take_nothing () =
  let growth delays =
    let rig ~until () =
      let cluster, _, _ =
        stream_rig ~senders:2 ~delays ~count:200 ~batch:50
          ~gap:(Time.us 100) ()
      in
      Shard.run ~until cluster;
      cluster
    in
    retained (rig ~until:(Time.us 450)) - retained (rig ~until:Time.zero)
  in
  let pair = [| Time.us 35; Time.us 10 |] in
  let grown = growth (Array.concat [ pair; pair ]) in
  Alcotest.(check bool) "the run stored mail" true (grown > 300);
  Alcotest.(check int) "a second idle portal pair adds nothing" grown
    (growth (Array.concat [ pair; pair; pair ]))

(* Closing drops every chunk and log. Two clusters send the same bursts
   at the same times, each shard over two portals, so their queues do
   the same and are empty at the cut. One has 35 us and 10 us portals;
   the other 400 us and 30 us ones, so it holds all its mail at the cut
   and logs three times as many runs per (longer) epoch. Once closed,
   with the lanes and endpoints gone, they keep the same words. *)
let test_close_drops_mail () =
  let closed ~slow ~fast =
    let in_flight = ref 0 in
    let rig () =
      let cluster, arrived, _ =
        stream_rig
          ~delays:[| slow; fast; slow; fast |]
          ~count:400 ~batch:50 ~gap:(Time.us 100) ()
      in
      Shard.run ~until:(Time.us 390) cluster;
      let lines = List.length (String.split_on_char '\n' (arrived ())) - 1 in
      in_flight := Shard.mail_injected cluster - lines;
      Shard.close cluster;
      cluster
    in
    let words = retained rig in
    (!in_flight, words)
  in
  let in_flight, words = closed ~slow:(Time.us 35) ~fast:(Time.us 10) in
  let in_flight', words' = closed ~slow:(Time.us 400) ~fast:(Time.us 30) in
  Alcotest.(check bool)
    (Printf.sprintf "in flight at the cut: %d over 400 us, %d over 35 us"
       in_flight' in_flight)
    true
    (in_flight' > in_flight + 200);
  Alcotest.(check int) "closed, both keep the same words" words words'

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
    Alcotest.test_case "records fill chunk ends" `Quick
      test_records_fill_chunks;
    Alcotest.test_case "portal delays of one and four epochs" `Quick
      test_delays_one_and_four_epochs;
    Alcotest.test_case "portals without mail take no chunk" `Quick
      test_idle_portals_take_nothing;
    Alcotest.test_case "close drops every chunk and log" `Quick
      test_close_drops_mail;
  ]
