(* Deadline-aware congestion control (D2TCP, from the paper's related
   work, §6): two flows share one marking bottleneck; the one with the
   tight deadline gamma-corrects its window cuts by its imminence factor
   and takes the larger share exactly while it needs it.

   Run with: dune exec examples/deadline_flows.exe *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module D2tcp = Xmp_transport.D2tcp

let () =
  let config = { Sim.default_config with seed = 12 } in
  let cluster = Net.Shard.create ~config ~shards:1 () in
  let sim = Net.Shard.sim cluster 0 and net = Net.Shard.net cluster 0 in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 10)
      ~capacity_pkts:100
  in
  let tb =
    Net.Testbed.create ~net ~n_left:2 ~n_right:2
      ~bottlenecks:
        [ { Net.Testbed.rate = Net.Units.mbps 300.; delay = Time.us 100; disc } ]
      ()
  in
  let mk ~host ~label ~deadline =
    let acked = ref 0 in
    let conn =
      Tcp.create ~net ~flow:host ~subflow:0
        ~src:(Net.Testbed.left_id tb host)
        ~dst:(Net.Testbed.right_id tb host)
        ~path:0
        ~cc:(D2tcp.make_cc ?deadline ~acked:(fun () -> !acked) ())
        ~config:Xmp_core.Xmp.dctcp_tcp_config
        ~on_segment_acked:(fun n -> acked := !acked + n)
        ()
    in
    (label, conn)
  in
  let flows =
    [
      mk ~host:0 ~label:"tight deadline (needs 200 Mbps)"
        ~deadline:
          (Some
             {
               (* ~50 MB due in 2 s: needs ~200 Mbps, above the 150 Mbps
                  fair share, so its imminence factor stays above 1 *)
               D2tcp.total_segments = 34_000;
               deadline_at = Time.sec 2.;
             });
      mk ~host:1 ~label:"no deadline (plain DCTCP behaviour)"
        ~deadline:None;
    ]
  in
  let last = Array.make 2 0 in
  ignore
    (Xmp_engine.Periodic.start sim ~interval:(Time.ms 250) (fun () ->
         Printf.printf "t=%.2fs " (Time.to_float_s (Sim.now sim));
         List.iteri
           (fun i (label, conn) ->
             let a = Tcp.segments_acked conn in
             let mbps =
               float_of_int ((a - last.(i)) * Net.Packet.payload_bytes * 8)
               /. 0.25 /. 1e6
             in
             last.(i) <- a;
             Printf.printf "| %s: %6.1f Mbps " label mbps)
           flows;
         print_newline ()));
  Net.Shard.run ~until:(Time.sec 3.) cluster;
  print_endline
    "\nExpected shape: while the tight-deadline flow is behind schedule it \
     backs off less on each ECN mark (imminence factor d > 1) and holds \
     the larger share; once its demand is met the shares even out."
