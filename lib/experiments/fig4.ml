module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Mptcp_flow = Xmp_mptcp.Mptcp_flow

type result = {
  beta : int;
  bucket_s : float;
  rates : (string * float array) list;
  shifted_share : float;
  compensation : float;
}

let bottleneck_rate = Net.Units.mbps 300.

let xmp_flow ~net ~beta ~flow ~src ~dst ~paths ?observer () =
  let params = { Xmp_core.Bos.default_params with beta } in
  Mptcp_flow.create ~net ~flow ~src ~dst ~paths
    ~coupling:(Xmp_core.Trash.coupling ~params ())
    ~config:Xmp_core.Xmp.tcp_config ?observer ()

let seed = 11

(* zero-load RTT 1.8 ms: 2 * (2 * 150 us + 600 us) *)
let testbed ~net ~disc =
  let spec = { Net.Testbed.rate = bottleneck_rate; delay = Time.us 600; disc } in
  Net.Testbed.create ~net ~n_left:5 ~n_right:5 ~bottlenecks:[ spec; spec ]
    ~access_delay:(Time.us 150) ()

let run ~scale ~seed ?(telemetry = Xmp_telemetry.Sink.null) ~faults ~beta () =
  let unit_s = 10. *. scale in
  (* paper schedule: bg on DN1 during [10,20) s, bg on DN2 during
     [20,30) s, run ends at 40 s *)
  let horizon_s = 4. *. unit_s in
  let config = { Sim.default_config with seed; telemetry; faults } in
  let cluster = Net.Shard.create ~config ~shards:1 () in
  let sim = Net.Shard.sim cluster 0 and net = Net.Shard.net cluster 0 in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 15)
      ~capacity_pkts:100
  in
  let tb = testbed ~net ~disc in
  ignore (Xmp_faults.Injector.install ~net ());
  let probe = Probe.create ~sim ~bucket_s:(unit_s /. 20.) ~horizon_s in
  let launch ~flow ~host ~paths ~probe_names =
    let recorders = Array.of_list (List.map (Probe.recorder probe) probe_names) in
    xmp_flow ~net ~beta ~flow
      ~src:(Net.Testbed.left_id tb host)
      ~dst:(Net.Testbed.right_id tb host)
      ~paths
      ~observer:
        {
          Mptcp_flow.silent with
          on_subflow_acked = (fun idx n -> recorders.(idx) n);
        }
      ()
  in
  ignore (launch ~flow:1 ~host:0 ~paths:[ 0 ] ~probe_names:[ "Flow 1" ]);
  ignore
    (launch ~flow:2 ~host:1 ~paths:[ 0; 1 ]
       ~probe_names:[ "Flow 2-1"; "Flow 2-2" ]);
  ignore (launch ~flow:3 ~host:2 ~paths:[ 1 ] ~probe_names:[ "Flow 3" ]);
  (* background flows *)
  let background ~flow ~host ~path ~from_u ~until_u =
    Sim.at sim
      (Time.sec (from_u *. unit_s))
      (fun () ->
        let f =
          xmp_flow ~net ~beta ~flow
            ~src:(Net.Testbed.left_id tb host)
            ~dst:(Net.Testbed.right_id tb host)
            ~paths:[ path ] ()
        in
        Sim.at sim
          (Time.sec (until_u *. unit_s))
          (fun () -> Mptcp_flow.stop f))
  in
  background ~flow:4 ~host:3 ~path:0 ~from_u:1. ~until_u:2.;
  background ~flow:5 ~host:4 ~path:1 ~from_u:2. ~until_u:3.;
  Net.Shard.run ~until:(Time.sec horizon_s) cluster;
  let norm = float_of_int bottleneck_rate in
  let rates =
    List.map
      (fun n -> (n, Probe.normalized probe n ~norm_bps:norm))
      [ "Flow 2-1"; "Flow 2-2" ]
  in
  let mean name ~from_u ~until_u =
    Probe.window_mean probe name ~from_s:(from_u *. unit_s)
      ~until_s:(until_u *. unit_s)
    /. norm
  in
  let shifted_share = mean "Flow 2-1" ~from_u:1.3 ~until_u:2. in
  let loaded_total =
    mean "Flow 2-1" ~from_u:1.3 ~until_u:2.
    +. mean "Flow 2-2" ~from_u:1.3 ~until_u:2.
  in
  let unloaded_total =
    mean "Flow 2-1" ~from_u:0.3 ~until_u:1.
    +. mean "Flow 2-2" ~from_u:0.3 ~until_u:1.
  in
  let compensation =
    if unloaded_total > 0. then loaded_total /. unloaded_total else 0.
  in
  {
    beta;
    bucket_s = Probe.bucket_s probe;
    rates;
    shifted_share;
    compensation;
  }

let print r =
  Render.subheading (Printf.sprintf "Figure 4 panel: beta = %d" r.beta);
  Render.series_table ~bucket_s:r.bucket_s ~every:2 r.rates;
  Render.printf
    "Flow 2-1 share while DN1 loaded = %.3f; total-rate retention = %.3f\n"
    r.shifted_share r.compensation
