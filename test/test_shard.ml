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
  ]
