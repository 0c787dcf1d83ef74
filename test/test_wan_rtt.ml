(* The ms-scale RTT regime: deterministic drop-pattern tests on long-haul
   paths (WAN trunks put 10-100 ms between the endpoints, 100-1000x the
   intra-DC RTTs the transport was grown on).

   The regression of record: with the RTO floor lowered to suit a WAN
   path (rto_min well under the historical 200 ms), the timeout must
   track the estimator -- srtt + max(G, 4 rttvar) at the moment the last
   ACK arrived -- and a loss-free transfer must never time out spuriously
   even though rttvar decays to near zero on a steady path. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Reno = Xmp_transport.Reno
module R = Xmp_transport.Rtt_estimator
module Testbed = Xmp_net.Testbed

type rig = {
  sim : Sim.t;
  conn : Tcp.t;
  fwd : Net.Link.t;
  samples : Time.t list ref;  (* reverse order *)
  last_ack_at : Time.t ref;
}

(* One connection over a 1x1 testbed whose bottleneck carries [delay]
   one-way propagation; every RTT sample and the arrival time of the
   last new-data ACK are recorded for offline replay. *)
let make_rig ~delay ~rto_min ~segments =
  let sim = Sim.create ~config:{ Sim.default_config with seed = 47 } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail ~capacity_pkts:500
  in
  let tb =
    Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:[ { Testbed.rate = Net.Units.mbps 100.; delay; disc } ]
      ~access_delay:(Time.us 10) ()
  in
  let samples = ref [] in
  let last_ack_at = ref Time.zero in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(fun v -> Reno.make v)
      ~config:{ Tcp.default_config with rto_min }
      ~source:(Tcp.Limited (ref segments))
      ~on_rtt_sample:(fun rtt -> samples := rtt :: !samples)
      ~on_segment_acked:(fun _ -> last_ack_at := Sim.now sim)
      ()
  in
  { sim; conn; fwd = Bottleneck.fwd net 0; samples; last_ack_at }

(* Drop the first transmission of [seq]; record when the second one
   crosses the bottleneck and the last new-data ACK time as of that
   moment (later ACKs -- the repair's own -- keep moving last_ack_at). *)
let drop_once_and_time rig ~seq =
  let killed = ref false in
  let observed = ref None in
  Net.Link.set_drop_filter rig.fwd
    (Some
       (fun p ->
         if Net.Packet.kind p = Net.Packet.Data && Net.Packet.seq p = seq then
           if not !killed then begin
             killed := true;
             true
           end
           else begin
             if !observed = None then
               observed := Some (Sim.now rig.sim, !(rig.last_ack_at));
             false
           end
         else false));
  observed

(* Satellite regression: a tail drop on a 50 ms-RTT path with a 5 ms
   floor. The only repair is the RTO, and the measured gap between the
   last new-data ACK and the retransmission must equal the estimator's
   prediction (replayed offline over the same samples) -- not the
   historical 200 ms floor. *)
let test_rto_tracks_estimator_on_50ms_path () =
  let segments = 30 in
  let rto_min = Time.ms 5 in
  let rig = make_rig ~delay:(Time.ms 25) ~rto_min ~segments in
  let observed = drop_once_and_time rig ~seq:(segments - 1) in
  Sim.run ~until:(Time.sec 5.) rig.sim;
  Alcotest.(check bool) "transfer completes" true (Tcp.is_complete rig.conn);
  Alcotest.(check int) "exactly one timeout" 1 (Tcp.timeouts rig.conn);
  let retx_at, last_ack =
    match !observed with
    | Some t -> t
    | None -> Alcotest.fail "tail segment never retransmitted"
  in
  let gap = Time.sub retx_at last_ack in
  (* replay the recorded samples through a fresh estimator: the deadline
     was armed at the last ACK as now + rto(est) *)
  let view = Xmp_transport.Cc.view ~now:(fun () -> 0) () in
  let rttvar =
    List.fold_left
      (fun rttvar rtt -> R.sample view ~rttvar rtt)
      R.initial_rttvar
      (List.rev !(rig.samples))
  in
  let c = Tcp.default_config in
  let predicted =
    R.timeout ~rto_min ~rto_max:c.rto_max ~granularity:c.rto_granularity
      ~srtt:view.Xmp_transport.Cc.srtt ~rttvar ~backoff:0
  in
  Alcotest.(check bool)
    (Printf.sprintf "gap %d ns within [predicted, predicted + 1 ms] (%d ns)"
       gap predicted)
    true
    (gap >= predicted && gap <= Time.add predicted (Time.ms 1));
  Alcotest.(check bool) "fires well below the 200 ms floor" true
    (gap < Time.ms 200);
  Alcotest.(check bool) "but above the path srtt" true (gap > Time.ms 50)

(* With the floor far below the delayed-ACK hold and rttvar fully
   decayed, only the granularity term G keeps the timeout above srtt: a
   loss-free ms-scale transfer must not RTO spuriously. *)
let test_no_spurious_rto_on_100ms_path () =
  let segments = 300 in
  let rig = make_rig ~delay:(Time.ms 50) ~rto_min:(Time.ms 1) ~segments in
  Sim.run ~until:(Time.sec 30.) rig.sim;
  Alcotest.(check bool) "transfer completes" true (Tcp.is_complete rig.conn);
  Alcotest.(check int) "no spurious timeout" 0 (Tcp.timeouts rig.conn);
  Alcotest.(check int) "no retransmission at all" 0
    (Tcp.retransmits rig.conn);
  (* the estimator converged on the true path RTT *)
  let srtt = Tcp.srtt rig.conn in
  Alcotest.(check bool) "srtt converged near 100 ms" true
    (srtt >= Time.ms 100 && srtt < Time.ms 110)

(* Karn's rule at ms scale: a segment lost twice is repaired by backoff
   retransmissions, and the ambiguity must not poison srtt -- after
   recovery the estimate still reflects the 100 ms path, not a multiple
   of it. *)
let test_karn_srtt_sane_after_double_loss () =
  let segments = 100 in
  let rig = make_rig ~delay:(Time.ms 50) ~rto_min:(Time.ms 1) ~segments in
  let killed = ref 0 in
  Net.Link.set_drop_filter rig.fwd
    (Some
       (fun p ->
         if
           Net.Packet.kind p = Net.Packet.Data
           && Net.Packet.seq p = 10
           && !killed < 2
         then begin
           incr killed;
           true
         end
         else false));
  Sim.run ~until:(Time.sec 30.) rig.sim;
  Alcotest.(check bool) "transfer completes" true (Tcp.is_complete rig.conn);
  Alcotest.(check int) "both copies were dropped" 2 !killed;
  Alcotest.(check bool) "hole sent at least twice more" true
    (Tcp.retransmits rig.conn >= 2);
  let srtt = Tcp.srtt rig.conn in
  Alcotest.(check bool)
    (Printf.sprintf "srtt %d ns still tracks the path" srtt)
    true
    (srtt >= Time.ms 95 && srtt <= Time.ms 160)

let suite =
  [
    Alcotest.test_case "RTO tracks estimator on 50 ms path" `Quick
      test_rto_tracks_estimator_on_50ms_path;
    Alcotest.test_case "no spurious RTO on loss-free 100 ms path" `Quick
      test_no_spurious_rto_on_100ms_path;
    Alcotest.test_case "Karn: srtt sane after double loss" `Quick
      test_karn_srtt_sane_after_double_loss;
  ]
