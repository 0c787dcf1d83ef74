(* Quickstart: the smallest end-to-end XMP simulation.

   One XMP flow with two subflows crosses a two-bottleneck testbed; we run
   for half a second of simulated time and report goodput, windows, RTT
   and the queue occupancy at the bottlenecks — the knobs §2 of the paper
   is about.

   Run with: dune exec examples/quickstart.exe *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Flow = Xmp_mptcp.Mptcp_flow

let () =
  (* 1. A one-shard cluster: one simulator and its empty network. *)
  let config = { Sim.default_config with seed = 42 } in
  let cluster = Net.Shard.create ~config ~shards:1 () in
  let sim = Net.Shard.sim cluster 0 and net = Net.Shard.net cluster 0 in

  (* 2. Switch queues: the paper's marking rule — CE-mark ECT packets when
     the instantaneous queue exceeds K = 10, over a 100-packet buffer. *)
  let disc = Xmp_core.Xmp.switch_disc ~params:Xmp_core.Params.default () in

  (* 3. A testbed with two 1 Gbps bottleneck paths. *)
  let spec =
    { Net.Testbed.rate = Net.Units.gbps 1.; delay = Time.us 62; disc }
  in
  let tb =
    Net.Testbed.create ~net ~n_left:1 ~n_right:1 ~bottlenecks:[ spec; spec ]
      ~access_delay:(Time.us 25) ()
  in

  (* 4. An XMP flow (BOS + TraSh) with one subflow per path, transferring
     50 MB. *)
  let size_segments = 50_000_000 / Net.Packet.payload_bytes in
  let flow =
    Xmp_core.Xmp.flow ~net ~flow:1
      ~src:(Net.Testbed.left_id tb 0)
      ~dst:(Net.Testbed.right_id tb 0)
      ~paths:[ 0; 1 ] ~size_segments
      ~observer:
        {
          Flow.silent with
          on_complete =
            (fun f ->
              Printf.printf "flow completed at %.3f s\n"
                (Time.to_float_s (Sim.now sim));
              Printf.printf "goodput: %.1f Mbps over two 1 Gbps paths\n"
                (Flow.goodput_bps f /. 1e6));
        }
      ()
  in

  (* 5. Run. *)
  Net.Shard.run ~until:(Time.sec 0.5) cluster;

  (* 6. Inspect. Bottleneck j is the link "IN{j+1}->OUT{j+1}". *)
  Array.iteri
    (fun i conn ->
      Printf.printf
        "subflow %d: cwnd = %.1f segments, srtt = %.0f us, acked = %d\n" i
        (Tcp.cwnd conn)
        (Time.to_us (Tcp.srtt conn))
        (Tcp.segments_acked conn))
    (Flow.subflows flow);
  List.iteri
    (fun j name ->
      let link = Option.get (Net.Network.find_link net ~name) in
      let disc = Net.Link.disc link in
      Printf.printf
        "bottleneck %d: %d packets marked, %d dropped, max queue %d pkts\n" j
        (Net.Queue_disc.marked disc)
        (Net.Queue_disc.dropped disc)
        (Net.Queue_disc.max_length_seen disc))
    [ "IN1->OUT1"; "IN2->OUT2" ];
  if not (Flow.is_complete flow) then
    Printf.printf "flow still running: %d of %d segments acked\n"
      (Flow.segments_acked flow) size_segments
