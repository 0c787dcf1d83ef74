module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Mptcp_flow = Xmp_mptcp.Mptcp_flow
module Scheme = Xmp_workload.Scheme

type result = {
  beta : int;
  bucket_s : float;
  rates : (string * float array) list;
  shifted_share : float;
  compensation : float;
}

let bottleneck_rate = Net.Units.mbps 300.

let seed = 11

(* zero-load RTT 1.8 ms: 2 * (2 * 150 us + 600 us) *)
let geometry =
  {
    Panel.hosts = 5;
    rates = [ bottleneck_rate; bottleneck_rate ];
    delay = Time.us 600;
    access_delay = Time.us 150;
  }

let run ~scale ~seed ?(telemetry = Xmp_telemetry.Sink.null) ~faults ~beta () =
  let unit_s = 10. *. scale in
  (* paper schedule: bg on DN1 during [10,20) s, bg on DN2 during
     [20,30) s, run ends at 40 s *)
  let horizon_s = 4. *. unit_s in
  Panel.run geometry ~seed ~telemetry ~faults
    ~queue:(Net.Queue_disc.Threshold_mark 15) ~capacity_pkts:100
    ~bucket_s:(unit_s /. 20.) ~horizon_s
  @@ fun env ->
  let xmp = Scheme.launcher (Scheme.xmp 2) { Scheme.default_overrides with beta } in
  let launch ~flow ~host ~paths ~probe_names =
    ignore
      (Panel.flow env ~observer:(Panel.series env probe_names) ~flow ~host
         ~paths xmp)
  in
  launch ~flow:1 ~host:0 ~paths:[ 0 ] ~probe_names:[ "Flow 1" ];
  launch ~flow:2 ~host:1 ~paths:[ 0; 1 ]
    ~probe_names:[ "Flow 2-1"; "Flow 2-2" ];
  launch ~flow:3 ~host:2 ~paths:[ 1 ] ~probe_names:[ "Flow 3" ];
  (* background flows *)
  let background ~flow ~host ~path ~from_u ~until_u =
    Sim.at env.sim
      (Time.sec (from_u *. unit_s))
      (fun () ->
        let f = Panel.flow env ~flow ~host ~paths:[ path ] xmp in
        Sim.at env.sim
          (Time.sec (until_u *. unit_s))
          (fun () -> Mptcp_flow.stop f))
  in
  background ~flow:4 ~host:3 ~path:0 ~from_u:1. ~until_u:2.;
  background ~flow:5 ~host:4 ~path:1 ~from_u:2. ~until_u:3.;
  fun () ->
    let norm = float_of_int bottleneck_rate in
    let rates =
      List.map
        (fun n -> (n, Probe.normalized env.probe n ~norm_bps:norm))
        [ "Flow 2-1"; "Flow 2-2" ]
    in
    let mean name ~from_u ~until_u =
      Probe.window_mean env.probe name ~from_s:(from_u *. unit_s)
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
      bucket_s = Probe.bucket_s env.probe;
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
