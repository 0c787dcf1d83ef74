module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Network = Xmp_net.Network
module Node = Xmp_net.Node
module Packet = Xmp_net.Packet
module Queue_disc = Xmp_net.Queue_disc

let disc () = Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:100

let test_explicit_ids () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let h = Network.add_host_at net ~id:40 ~name:"h40" in
  let s = Network.add_switch_at net ~id:7 ~name:"s7" in
  Alcotest.(check int) "host id honoured" 40 (Node.id h);
  Alcotest.(check int) "switch id honoured" 7 (Node.id s);
  Alcotest.(check bool) "lookup by explicit id" true
    (Network.node net 40 == h && Network.node net 7 == s);
  (* implicit allocation continues past the highest explicit id *)
  let n = Network.add_host net ~name:"next" in
  Alcotest.(check int) "implicit id after explicit" 41 (Node.id n);
  Alcotest.(check bool) "collision rejected" true
    (try
       ignore (Network.add_host_at net ~id:7 ~name:"dup");
       false
     with Invalid_argument _ -> true)

let test_nodes () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let h = Network.add_host net ~name:"h0" in
  let s = Network.add_switch net ~name:"s0" in
  Alcotest.(check int) "host id" 0 (Node.id h);
  Alcotest.(check int) "switch id" 1 (Node.id s);
  Alcotest.(check int) "n_nodes" 2 (Network.n_nodes net);
  Alcotest.(check bool) "kinds" true
    (Node.kind h = Node.Host && Node.kind s = Node.Switch);
  Alcotest.(check bool) "lookup" true (Network.node net 0 == h)

let test_connect_and_forward () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let a = Network.add_host net ~name:"a" in
  let sw = Network.add_switch net ~name:"sw" in
  let b = Network.add_host net ~name:"b" in
  let rate = Net.Units.gbps 1. in
  ignore (Network.connect net ~rate ~delay:(Time.us 1) ~disc a sw);
  ignore (Network.connect net ~rate ~delay:(Time.us 1) ~disc sw b);
  (* a: port 0 -> sw; sw: port 0 -> a, port 1 -> b *)
  Node.set_route a (fun _ -> 0);
  Node.set_route sw (fun p -> if (Packet.dst p) = Node.id b then 1 else 0);
  let received = ref [] in
  Network.register_endpoint net ~host:(Node.id b) ~flow:1 ~subflow:0
    (fun p -> received := (Packet.seq p) :: !received);
  let pkt =
    Packet.data ~flow:1 ~subflow:0 ~src:(Node.id a) ~dst:(Node.id b)
      ~path:0 ~seq:42 ~ect:false ~cwr:false ~ts:0
  in
  Node.send a pkt;
  Sim.run sim;
  Alcotest.(check (list int)) "delivered through switch" [ 42 ] !received;
  Alcotest.(check int) "switch forwarded" 1
    (Net.Link.packets_sent (Node.port sw 0)
    + Net.Link.packets_sent (Node.port sw 1))

let test_dead_letter () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let a = Network.add_host net ~name:"a" in
  let b = Network.add_host net ~name:"b" in
  ignore
    (Network.connect net ~rate:(Net.Units.gbps 1.) ~delay:(Time.us 1) ~disc a
       b);
  Node.set_route a (fun _ -> 0);
  let pkt =
    Packet.data ~flow:9 ~subflow:0 ~src:(Node.id a) ~dst:(Node.id b)
      ~path:0 ~seq:1 ~ect:false ~cwr:false ~ts:0
  in
  Node.send a pkt;
  Sim.run sim;
  (* a dispatched packet is delivered or dead-lettered, never both *)
  Alcotest.(check int) "dead lettered" 1 (Network.packets_dead_lettered net)

let test_unregister () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let a = Network.add_host net ~name:"a" in
  let b = Network.add_host net ~name:"b" in
  ignore
    (Network.connect net ~rate:(Net.Units.gbps 1.) ~delay:(Time.us 1) ~disc a
       b);
  Node.set_route a (fun _ -> 0);
  let hits = ref 0 in
  Network.register_endpoint net ~host:(Node.id b) ~flow:1 ~subflow:0
    (fun _ -> incr hits);
  Network.unregister_endpoint net ~host:(Node.id b) ~flow:1 ~subflow:0;
  Node.send a
    (Packet.data ~flow:1 ~subflow:0 ~src:(Node.id a) ~dst:(Node.id b)
       ~path:0 ~seq:1 ~ect:false ~cwr:false ~ts:0);
  Sim.run sim;
  Alcotest.(check int) "handler removed" 0 !hits

let test_tags () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let a = Network.add_switch net ~name:"a" in
  let b = Network.add_switch net ~name:"b" in
  let c = Network.add_switch net ~name:"c" in
  ignore
    (Network.connect net ~tag:"core" ~rate:(Net.Units.gbps 1.)
       ~delay:(Time.us 1) ~disc a b);
  ignore
    (Network.connect net ~tag:"rack" ~rate:(Net.Units.gbps 1.)
       ~delay:(Time.us 1) ~disc b c);
  Alcotest.(check int) "4 directed links" 4 (List.length (Network.links net));
  Alcotest.(check int) "2 core" 2 (List.length (Network.links_tagged net "core"));
  Alcotest.(check int) "2 rack" 2 (List.length (Network.links_tagged net "rack"));
  Alcotest.(check int) "0 other" 0 (List.length (Network.links_tagged net "x"));
  match Network.links net with
  | first :: _ ->
    Alcotest.(check (option string))
      "tag lookup" (Some "core")
      (Network.tag_of_link net first)
  | [] -> Alcotest.fail "no links"

let test_asym_connect () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let a = Network.add_switch net ~name:"a" in
  let b = Network.add_switch net ~name:"b" in
  let egress src dst rate =
    Network.add_egress net
      ~name:(Node.name src ^ "->" ^ Node.name dst)
      ~rate ~delay:(Time.us 1) ~disc src (Node.receive dst)
  in
  let fwd = egress a b (Net.Units.gbps 10.) in
  let rev = egress b a (Net.Units.gbps 1.) in
  Alcotest.(check int) "fwd rate" (Net.Units.gbps 10.) (Net.Link.rate fwd);
  Alcotest.(check int) "rev rate" (Net.Units.gbps 1.) (Net.Link.rate rev)

let test_host_rejects_transit () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let a = Network.add_host net ~name:"a" in
  let pkt =
    Packet.data ~flow:1 ~subflow:0 ~src:9 ~dst:99 ~path:0 ~seq:1
      ~ect:false ~cwr:false ~ts:0
  in
  Alcotest.(check bool) "raises" true
    (try
       Node.receive a pkt;
       false
     with Failure _ -> true)

(* Every delivered packet walks one chain of the endpoint table, so its
   cost is the longest chain, which must not grow with the flow count. A
   hash whose low bits see only the subflow index would put these 16384
   keys in two chains. *)
let test_endpoint_spread () =
  let net = Network.create (Sim.create ()) in
  for host = 0 to 1 do
    for flow = 0 to 4095 do
      for subflow = 0 to 1 do
        Network.register_endpoint net ~host ~flow ~subflow ignore
      done
    done
  done;
  let st = Network.endpoint_stats net in
  Alcotest.(check int) "all bound" 16384 st.Hashtbl.num_bindings;
  if st.Hashtbl.max_bucket_length > 16 then
    Alcotest.failf "longest chain %d over %d buckets (want <= 16)"
      st.Hashtbl.max_bucket_length st.Hashtbl.num_buckets

let suite =
  [
    Alcotest.test_case "explicit ids" `Quick test_explicit_ids;
    Alcotest.test_case "node registry" `Quick test_nodes;
    Alcotest.test_case "connect and forward" `Quick test_connect_and_forward;
    Alcotest.test_case "dead letter" `Quick test_dead_letter;
    Alcotest.test_case "unregister endpoint" `Quick test_unregister;
    Alcotest.test_case "link tags" `Quick test_tags;
    Alcotest.test_case "asymmetric connect" `Quick test_asym_connect;
    Alcotest.test_case "host rejects transit" `Quick
      test_host_rejects_transit;
    Alcotest.test_case "endpoint spread" `Quick test_endpoint_spread;
  ]
