(* Deterministic drop-pattern tests for the retransmission path.

   The rig is one TCP connection over a 1x1 testbed with a queue deep
   enough that no congestion loss occurs; every loss is injected
   per-packet through [Link.set_drop_filter], so each test exercises a
   known pattern (single loss, burst, lost retransmission, lost ACKs,
   loss in slow start) and can assert the exact recovery mechanism that
   repaired it. A watcher samples [snd_una] every millisecond and fails
   on any regression. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Reno = Xmp_transport.Reno
module Testbed = Xmp_net.Testbed

type rig = {
  sim : Sim.t;
  conn : Tcp.t;
  fwd : Net.Link.t;  (* data direction *)
  rev : Net.Link.t;  (* ack direction *)
}

let make_rig ~sack ~segments =
  let sim = Sim.create ~config:{ Sim.default_config with seed = 47 } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail ~capacity_pkts:200
  in
  let tb =
    Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.mbps 100.; delay = Time.us 50; disc } ]
      ~access_delay:(Time.us 10) ()
  in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(fun v -> Reno.make v)
      ~config:{ Tcp.default_config with sack }
      ~source:(Tcp.Limited (ref segments))
      ()
  in
  {
    sim;
    conn;
    fwd = Bottleneck.fwd net 0;
    rev = Bottleneck.rev net 0;
  }

(* Kill the first [n] transmissions of each listed data segment. *)
let drop_data rig plan =
  let killed = Hashtbl.create 8 in
  Net.Link.set_drop_filter rig.fwd
    (Some
       (fun p ->
         match (Net.Packet.kind p) with
         | Net.Packet.Ack -> false
         | Net.Packet.Data -> (
           match List.assoc_opt (Net.Packet.seq p) plan with
           | None -> false
           | Some n ->
             let c =
               Option.value ~default:0 (Hashtbl.find_opt killed (Net.Packet.seq p))
             in
             if c < n then begin
               Hashtbl.replace killed (Net.Packet.seq p) (c + 1);
               true
             end
             else false)))

(* Kill the [n] consecutive ACKs starting at ACK number [from] (counting
   ACK packets as they cross the bottleneck). *)
let drop_acks rig ~from ~n =
  let seen = ref 0 in
  Net.Link.set_drop_filter rig.rev
    (Some
       (fun p ->
         match (Net.Packet.kind p) with
         | Net.Packet.Data -> false
         | Net.Packet.Ack ->
           let i = !seen in
           incr seen;
           i >= from && i < from + n))

let watch_snd_una rig =
  let last = ref 0 in
  let rec tick () =
    let u = Tcp.segments_acked rig.conn in
    if u < !last then
      Alcotest.failf "snd_una regressed: %d after %d" u !last;
    last := u;
    if not (Tcp.is_complete rig.conn) then Sim.after rig.sim (Time.ms 1) tick
  in
  Sim.after rig.sim (Time.ms 1) tick

let finish ?(horizon = Time.sec 20.) ~segments rig =
  Sim.run ~until:horizon rig.sim;
  Alcotest.(check bool) "transfer completes" true (Tcp.is_complete rig.conn);
  Alcotest.(check int) "every segment acked" segments
    (Tcp.segments_acked rig.conn)

let test_single_loss_sack () =
  let segments = 100 in
  let rig = make_rig ~sack:true ~segments in
  drop_data rig [ (10, 1) ];
  watch_snd_una rig;
  finish ~segments rig;
  Alcotest.(check int) "exactly one retransmission" 1
    (Tcp.retransmits rig.conn);
  Alcotest.(check bool) "repaired by fast retransmit" true
    (Tcp.fast_retransmits rig.conn >= 1);
  Alcotest.(check int) "no timeout" 0 (Tcp.timeouts rig.conn)

let test_single_loss_newreno () =
  let segments = 100 in
  let rig = make_rig ~sack:false ~segments in
  drop_data rig [ (10, 1) ];
  watch_snd_una rig;
  finish ~segments rig;
  Alcotest.(check int) "exactly one retransmission" 1
    (Tcp.retransmits rig.conn);
  Alcotest.(check int) "no timeout" 0 (Tcp.timeouts rig.conn)

let test_burst_loss_sack_avoids_rto () =
  (* four consecutive holes: the entry retransmission repairs the first,
     and SACK-scoreboard advances during recovery must repair the rest
     (each exactly once) without waiting for the retransmission timer *)
  let segments = 100 in
  let rig = make_rig ~sack:true ~segments in
  drop_data rig [ (10, 1); (11, 1); (12, 1); (13, 1) ];
  watch_snd_una rig;
  finish ~segments rig;
  Alcotest.(check int) "no timeout" 0 (Tcp.timeouts rig.conn);
  let retx = Tcp.retransmits rig.conn in
  Alcotest.(check bool)
    (Printf.sprintf "each hole repaired about once (%d)" retx)
    true
    (retx >= 4 && retx <= 8)

let test_lost_retransmission_rto_backstop () =
  (* the fast retransmission of the hole is itself lost; the scoreboard
     never advances past it again, so only the RTO can finish the job *)
  let segments = 100 in
  let rig = make_rig ~sack:true ~segments in
  drop_data rig [ (10, 2) ];
  watch_snd_una rig;
  finish ~segments rig;
  Alcotest.(check bool) "RTO fired" true (Tcp.timeouts rig.conn >= 1);
  Alcotest.(check bool) "hole sent at least twice" true
    (Tcp.retransmits rig.conn >= 2)

let test_lost_acks_cumulative_recovery () =
  (* pure ACK loss mid-stream, with other ACKs still flowing: the next
     surviving cumulative ACK covers the dropped ones, so no data is ever
     retransmitted *)
  let segments = 100 in
  let rig = make_rig ~sack:true ~segments in
  drop_acks rig ~from:10 ~n:3;
  watch_snd_una rig;
  finish ~segments rig;
  Alcotest.(check int) "no data retransmitted" 0 (Tcp.retransmits rig.conn);
  Alcotest.(check int) "no timeout" 0 (Tcp.timeouts rig.conn)

let test_loss_during_slow_start () =
  (* an early loss, with little data in flight behind it: whatever
     mechanism repairs it (dupacks may be too few for fast retransmit),
     completion and snd_una monotonicity must hold *)
  let segments = 50 in
  let rig = make_rig ~sack:false ~segments in
  drop_data rig [ (2, 1) ];
  watch_snd_una rig;
  finish ~segments rig;
  Alcotest.(check bool) "loss was repaired" true
    (Tcp.retransmits rig.conn >= 1);
  Alcotest.(check bool) "by fast retransmit or RTO" true
    (Tcp.fast_retransmits rig.conn + Tcp.timeouts rig.conn >= 1)

let suite =
  [
    Alcotest.test_case "single loss, SACK" `Quick test_single_loss_sack;
    Alcotest.test_case "single loss, NewReno" `Quick test_single_loss_newreno;
    Alcotest.test_case "burst loss avoids RTO with SACK" `Quick
      test_burst_loss_sack_avoids_rto;
    Alcotest.test_case "lost retransmission falls back to RTO" `Quick
      test_lost_retransmission_rto_backstop;
    Alcotest.test_case "lost ACKs recovered cumulatively" `Quick
      test_lost_acks_cumulative_recovery;
    Alcotest.test_case "loss during slow start" `Quick
      test_loss_during_slow_start;
  ]
