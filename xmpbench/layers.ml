(* Per-layer unit costs: one Bechamel micro-bench per simulator layer,
   each timing the operation that layer repeats on the packet or flow
   hot path, reported as host nanoseconds per operation. The names are
   the benchmark's per-layer metric names. *)

module Time = Xmp_engine.Time
module Sim = Xmp_engine.Sim
module Event_queue = Xmp_engine.Event_queue
module Packet = Xmp_net.Packet
module Queue_disc = Xmp_net.Queue_disc
module Network = Xmp_net.Network
module Node = Xmp_net.Node
module Shard = Xmp_net.Shard
module Testbed = Xmp_net.Testbed
module Units = Xmp_net.Units
module Tcp = Xmp_transport.Tcp
module Scheme = Xmp_workload.Scheme
module Conformance = Xmp_workload.Conformance
module Arrivals = Xmp_workload.Arrivals
module Flow_size = Xmp_workload.Flow_size
module Metrics = Xmp_workload.Metrics

(* A bench is a name, the operations one call performs, and a maker
   that builds the state once and returns the timed call. *)
type bench = { name : string; ops : int; make : unit -> unit -> unit }

let data_packet seq =
  Packet.data ~flow:0 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq ~ect:true
    ~cwr:false ~ts:0

(* Steady-state heap of [size] pending events: each call pushes one event
   a pseudo-random distance ahead and pops the earliest. *)
let queue_push_pop size =
  let make () =
    let q = Event_queue.create () in
    let seq = ref 0 in
    let push now =
      incr seq;
      Event_queue.add q ~time:(now + 1 + (!seq * 7919 mod 10_007)) ~seq:!seq 0
    in
    for _ = 1 to size do
      push 0
    done;
    fun () ->
      push (Event_queue.top_time q);
      ignore (Event_queue.pop_payload q)
  in
  { name = Printf.sprintf "engine.queue.push_pop_ns.h%d" size; ops = 1; make }

(* A retransmission timer re-armed per ACK: arm 200 ms out, then cancel,
   over 64 live far-future events so lazy deletion compacts as it does
   under a running transport. *)
let timer_arm_cancel =
  let make () =
    let sim = Sim.create () in
    for i = 1 to 64 do
      Sim.at sim (Time.sec (float_of_int i)) ignore
    done;
    fun () -> Sim.cancel (Sim.timer_after sim (Time.ms 200) ignore)
  in
  { name = "engine.timer.arm_cancel_ns"; ops = 1; make }

let packet_acquire_release =
  let make () () = Packet.release (data_packet 0) in
  { name = "net.packet.acquire_release_ns"; ops = 1; make }

(* A marking switch queue held at 20 packets (above K = 10, so every
   arrival is CE-marked): one enqueue and one dequeue per call. *)
let queue_enqueue_dequeue =
  let make () =
    let d =
      Queue_disc.create ~policy:(Queue_disc.Threshold_mark 10)
        ~capacity_pkts:100
    in
    for i = 1 to 20 do
      ignore (Queue_disc.enqueue d (data_packet i))
    done;
    fun () ->
      ignore (Queue_disc.enqueue d (data_packet 0));
      match Queue_disc.dequeue d with
      | Some p -> Packet.release p
      | None -> ()
  in
  { name = "net.queue.enqueue_dequeue_ns"; ops = 1; make }

(* Two one-host shards joined by 40 us portals (the rig of the shard
   tests): each call sends a burst of mails across and runs the cluster
   until they are delivered; the cost is per mail. *)
let shard_mails = 64

let shard_mail =
  let make () =
    let disc () =
      Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:100
    in
    let cluster = Shard.create ~shards:2 () in
    let a = Network.add_host_at (Shard.net cluster 0) ~id:0 ~name:"a" in
    let b = Network.add_host_at (Shard.net cluster 1) ~id:1 ~name:"b" in
    Node.set_route a (fun _ -> 0);
    Node.set_route b (fun _ -> 0);
    let rate = Units.gbps 1. in
    let delay = Time.us 40 in
    ignore (Shard.portal cluster ~src:(0, a) ~dst:(1, b) ~rate ~delay ~disc ());
    ignore (Shard.portal cluster ~src:(1, b) ~dst:(0, a) ~rate ~delay ~disc ());
    Network.register_endpoint (Shard.net cluster 1) ~host:1 ~flow:0 ~subflow:0
      ignore;
    let until = ref Time.zero in
    fun () ->
      for seq = 1 to shard_mails do
        Node.send a (data_packet seq)
      done;
      until := Time.add !until (Time.ms 1);
      Shard.run ~until:!until cluster
  in
  { name = "net.shard.mail_ns"; ops = shard_mails; make }

(* One SACK Reno flow of [segments] over a 1 Gbps testbed bottleneck with
   a 100-packet droptail queue, so slow start overflows it and loss
   recovery runs; the cost is per delivered segment. *)
let tcp_segments = 2000

let tcp_segment =
  let make () () =
    let sim = Sim.create () in
    let net = Network.create sim in
    let disc () =
      Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:100
    in
    let tb =
      Testbed.create ~net ~n_left:1 ~n_right:1
        ~bottlenecks:
          [ { Testbed.rate = Units.gbps 1.; delay = Time.us 50; disc } ]
        ()
    in
    let reno =
      Xmp_transport.Reno.make ~params:Xmp_transport.Reno.default_params
    in
    ignore
      (Tcp.create ~net ~flow:1 ~subflow:0 ~src:(Testbed.left_id tb 0)
         ~dst:(Testbed.right_id tb 0) ~path:0 ~cc:reno
         ~config:{ Tcp.default_config with sack = true }
         ~source:(Tcp.Limited (ref tcp_segments))
         ());
    Sim.run sim
  in
  { name = "transport.tcp.ns_per_segment"; ops = tcp_segments; make }

let cc_metric scheme =
  String.map
    (fun c -> if c = '-' then '_' else Char.lowercase_ascii c)
    (Scheme.name scheme)

(* A scheme's controller hooks driven through the conformance rig, out
   of slow start (one CE-marked ACK first): [on_ack] is a clean
   one-segment ACK, [on_ecn] a CE-marked one (on_ecn then on_ack). *)
let cc_hook scheme ~ce =
  let make () =
    let rig = Conformance.make_rig scheme in
    Conformance.apply rig (Conformance.Ce_ack 1);
    let step = if ce then Conformance.Ce_ack 1 else Conformance.Ack 1 in
    fun () -> Conformance.apply rig step
  in
  {
    name =
      Printf.sprintf "cc.%s.%s" (cc_metric scheme)
        (if ce then "on_ecn_ns" else "on_ack_ns");
    ops = 1;
    make;
  }

let web_search = Flow_size.scaled Flow_size.web_search (1. /. 32.)

(* 128 hosts at 1000 flows/s each; every call advances the target by the
   mean aggregate gap, so a call pops one arrival on average. *)
let arrivals_next =
  let make () =
    let hosts = 128 and rate = 1000. in
    let a = Arrivals.create ~seed:1 ~hosts ~rate in
    let gap = Time.of_float_s (1. /. (float_of_int hosts *. rate)) in
    let target = ref Time.zero in
    let f ~host:_ ~at:_ ~rng:_ = () in
    fun () ->
      target := Time.add !target gap;
      ignore (Arrivals.until a ~target:!target ~f)
  in
  { name = "workload.arrivals.next_ns"; ops = 1; make }

let flow_size_sample =
  let make () =
    let rng = Random.State.make [| 1 |] in
    fun () -> ignore (Flow_size.sample web_search rng)
  in
  { name = "workload.flow_size.sample_ns"; ops = 1; make }

let metrics_record_fct =
  let make () =
    let m = Metrics.create ~rtt_subsample:64 () in
    let rng = Random.State.make [| 2 |] in
    fun () ->
      let size_segments = Flow_size.sample web_search rng in
      let ideal = Time.us (100 + (12 * size_segments)) in
      Metrics.record_fct m ~size_segments ~fct:(Time.mul ideal 3) ~ideal
  in
  { name = "workload.metrics.record_fct_ns"; ops = 1; make }

let all =
  [
    queue_push_pop 512;
    queue_push_pop 8192;
    timer_arm_cancel;
    packet_acquire_release;
    queue_enqueue_dequeue;
    shard_mail;
    tcp_segment;
  ]
  @ List.concat_map
      (fun s -> [ cc_hook s ~ce:false; cc_hook s ~ce:true ])
      Conformance.schemes
  @ [ arrivals_next; flow_size_sample; metrics_record_fct ]

(* Bechamel's OLS estimate of the time per call, divided by the
   operations per call; [quota] is the sampling time per bench. *)
let measure ~quota b =
  let test =
    Bechamel.Test.make ~name:b.name (Bechamel.Staged.stage (b.make ()))
  in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:500 ~quota:(Bechamel.Time.second quota) ()
  in
  let raw =
    Bechamel.Benchmark.all cfg
      [ Bechamel.Toolkit.Instance.monotonic_clock ]
      test
  in
  let ols =
    Bechamel.Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:Bechamel.Measure.[| run |]
  in
  let results =
    Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw
  in
  match Bechamel.Analyze.OLS.estimates (Hashtbl.find results b.name) with
  | Some [ ns ] -> ns /. float_of_int b.ops
  | Some _ | None -> nan

let run ~quota = List.map (fun b -> (b.name, measure ~quota b)) all
