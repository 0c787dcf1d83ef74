module D2tcp = Xmp_transport.D2tcp
module Dctcp = Xmp_transport.Dctcp
module Cc = Xmp_transport.Cc
module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Testbed = Xmp_net.Testbed

let checkf = Alcotest.(check (float 1e-9))
let params = D2tcp.default_params

let test_imminence_neutral () =
  (* needing exactly the time available -> d = 1 *)
  checkf "d = 1" 1.
    (D2tcp.imminence ~params ~remaining_segments:100
       ~rate_segments_per_s:1000. ~time_left_s:0.1)

let test_imminence_clamps () =
  checkf "far deadline clamps at 0.5" 0.5
    (D2tcp.imminence ~params ~remaining_segments:1
       ~rate_segments_per_s:10000. ~time_left_s:10.);
  checkf "imminent deadline clamps at 2" 2.
    (D2tcp.imminence ~params ~remaining_segments:100000
       ~rate_segments_per_s:10. ~time_left_s:0.001);
  checkf "missed deadline behaves most aggressive" 2.
    (D2tcp.imminence ~params ~remaining_segments:10 ~rate_segments_per_s:10.
       ~time_left_s:(-1.));
  checkf "finished flow backs off most" 0.5
    (D2tcp.imminence ~params ~remaining_segments:0 ~rate_segments_per_s:10.
       ~time_left_s:1.)

(* scripted-view unit check: imminent flows cut less than far ones; the
   scripted connection is the view itself, and tests move its fields *)
let fake_view () =
  let view =
    Cc.view ~srtt:(Time.us 200) ~min_rtt:(Time.us 200) ~now:(fun () -> 0) ()
  in
  (view, view)

let grow cc f n =
  for _ = 1 to n do
    f.Cc.snd_una <- f.Cc.snd_una + 1;
    if f.Cc.snd_nxt < f.Cc.snd_una then f.Cc.snd_nxt <- f.Cc.snd_una;
    Cc.on_ack cc ~ack:f.Cc.snd_una ~newly_acked:1 ~ce_count:0
  done

let cut_with ~deadline =
  let f, view = fake_view () in
  let acked = ref 0 in
  let cc =
    D2tcp.make_cc
      ~params:{ params with g = 1e-12 } (* keep alpha at 1 *)
      ?deadline
      ~acked:(fun () -> !acked)
      () view
  in
  grow cc f 17;
  acked := 17;
  f.Cc.snd_nxt <- 100;
  let before = Cc.cwnd cc in
  Cc.on_ecn cc ~count:1;
  (before, Cc.cwnd cc)

let test_no_deadline_is_dctcp () =
  let before, after = cut_with ~deadline:None in
  checkf "alpha^1/2 = halving" (before /. 2.) after

(* A deadline-less D2TCP runs the DCTCP body with d = 1: drive both
   through one multi-window ACK/CE script (a partial α, several marked
   windows, a fast retransmit and a timeout) and compare every step. *)
type step = Send of int | Ack of int * int | Fast_retransmit | Timeout

let script =
  let window ~marked_every n =
    List.init n (fun i ->
        Ack (1, if marked_every > 0 && i mod marked_every = 0 then 1 else 0))
  in
  List.concat
    [
      window ~marked_every:0 12;
      [ Send 16 ];
      window ~marked_every:4 16;
      [ Send 18 ];
      window ~marked_every:2 18;
      [ Send 18 ];
      window ~marked_every:0 18;
      [ Send 20 ];
      window ~marked_every:5 10;
      [ Fast_retransmit ];
      window ~marked_every:3 10;
      [ Send 12 ];
      window ~marked_every:1 12;
      [ Timeout ];
      window ~marked_every:0 8;
      [ Send 10; Ack (4, 2) ];
      window ~marked_every:6 10;
    ]

let apply cc f = function
  | Send n -> f.Cc.snd_nxt <- f.Cc.snd_una + n
  | Ack (n, ce) ->
    f.Cc.snd_una <- f.Cc.snd_una + n;
    if f.Cc.snd_nxt < f.Cc.snd_una then f.Cc.snd_nxt <- f.Cc.snd_una;
    (* the transport reports CE echoes before the ACK they ride on *)
    if ce > 0 then Cc.on_ecn cc ~count:ce;
    Cc.on_ack cc ~ack:f.Cc.snd_una ~newly_acked:n ~ce_count:ce
  | Fast_retransmit -> Cc.on_fast_retransmit cc
  | Timeout -> Cc.on_timeout cc

let test_no_deadline_tracks_dctcp () =
  let p = { params with init_alpha = 0.3; g = 1. /. 16. } in
  let fd, dview = fake_view () in
  let dctcp =
    Dctcp.make
      ~params:
        {
          Dctcp.g = p.g;
          init_alpha = p.init_alpha;
          init_cwnd = p.init_cwnd;
          min_cwnd = p.min_cwnd;
        }
      dview
  in
  let f2, view2 = fake_view () in
  let d2tcp =
    D2tcp.make_cc ~params:p ~acked:(fun () -> f2.Cc.snd_una) () view2
  in
  let cuts = ref 0 in
  List.iteri
    (fun i step ->
      let before = Cc.cwnd dctcp in
      apply dctcp fd step;
      apply d2tcp f2 step;
      if Cc.cwnd dctcp < before then incr cuts;
      Alcotest.(check (float 0.))
        (Printf.sprintf "cwnd after step %d" i)
        (Cc.cwnd dctcp) (Cc.cwnd d2tcp);
      Alcotest.(check bool)
        (Printf.sprintf "slow start after step %d" i)
        (Cc.in_slow_start dctcp)
        (Cc.in_slow_start d2tcp))
    script;
  (* the script exercises ECN cuts beyond the loss and timeout ones *)
  Alcotest.(check bool) (Printf.sprintf "%d cuts" !cuts) true (!cuts >= 5)

let test_imminent_cuts_less () =
  (* deadline nearly missed: d = 2, cut = alpha^2/2 = 1/2... with alpha=1
     both d give the same cut; use a mid alpha instead *)
  let run ~alpha ~deadline =
    let f, view = fake_view () in
    let acked = ref 0 in
    let cc =
      D2tcp.make_cc
        ~params:{ params with init_alpha = alpha; g = 1e-12 }
        ?deadline
        ~acked:(fun () -> !acked)
        () view
    in
    grow cc f 17;
    acked := 17;
    f.Cc.snd_nxt <- 100;
    let before = Cc.cwnd cc in
    Cc.on_ecn cc ~count:1;
    before -. Cc.cwnd cc
  in
  let tight =
    Some { D2tcp.total_segments = 1_000_000; deadline_at = Time.us 1 }
  in
  let loose =
    Some { D2tcp.total_segments = 18; deadline_at = Time.sec 100. }
  in
  let cut_tight = run ~alpha:0.5 ~deadline:tight in
  let cut_loose = run ~alpha:0.5 ~deadline:loose in
  let cut_neutral = run ~alpha:0.5 ~deadline:None in
  Alcotest.(check bool)
    (Printf.sprintf "tight %.2f < neutral %.2f < loose %.2f" cut_tight
       cut_neutral cut_loose)
    true
    (cut_tight < cut_neutral && cut_neutral < cut_loose)

let test_deadline_flow_wins_bandwidth () =
  (* two D2TCP flows share a marking bottleneck; the tight-deadline flow
     should finish with more delivered data *)
  let sim = Sim.create ~config:{ Sim.default_config with seed = 8 } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 10)
      ~capacity_pkts:100
  in
  let tb =
    Testbed.create ~net ~n_left:2 ~n_right:2
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.mbps 200.; delay = Time.us 50; disc } ]
      ()
  in
  let mk ~host ~deadline =
    let acked = ref 0 in
    Tcp.create ~net ~flow:host ~subflow:0
      ~src:(Testbed.left_id tb host)
      ~dst:(Testbed.right_id tb host)
      ~path:0
      ~cc:(D2tcp.make_cc ?deadline ~acked:(fun () -> !acked) ())
      ~config:Xmp_core.Xmp.dctcp_tcp_config
      ~on_segment_acked:(fun n -> acked := !acked + n)
      ()
  in
  let tight =
    mk ~host:0
      ~deadline:
        (Some { D2tcp.total_segments = 20_000; deadline_at = Time.ms 100 })
  in
  let loose =
    mk ~host:1
      ~deadline:
        (Some { D2tcp.total_segments = 100; deadline_at = Time.sec 30. })
  in
  Sim.run ~until:(Time.ms 400) sim;
  let r_tight = Tcp.segments_acked tight in
  let r_loose = Tcp.segments_acked loose in
  Alcotest.(check bool)
    (Printf.sprintf "tight-deadline flow gets more (%d vs %d)" r_tight
       r_loose)
    true
    (float_of_int r_tight > 1.2 *. float_of_int r_loose)

let suite =
  [
    Alcotest.test_case "imminence neutral point" `Quick
      test_imminence_neutral;
    Alcotest.test_case "imminence clamps" `Quick test_imminence_clamps;
    Alcotest.test_case "no deadline = DCTCP" `Quick test_no_deadline_is_dctcp;
    Alcotest.test_case "imminent flows cut less" `Quick
      test_imminent_cuts_less;
    Alcotest.test_case "tight deadline wins bandwidth" `Quick
      test_deadline_flow_wins_bandwidth;
    Alcotest.test_case "no deadline tracks DCTCP step by step" `Quick
      test_no_deadline_tracks_dctcp;
  ]
