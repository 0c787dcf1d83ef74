module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Mptcp_flow = Xmp_mptcp.Mptcp_flow
module Coupling = Xmp_mptcp.Coupling

type variant = { dctcp : bool; k : int }

type result = {
  variant : variant;
  bucket_s : float;
  rates : (string * float array) list;
  utilization : float;
  jain_all_active : float;
}

let variants =
  [
    { dctcp = true; k = 10 };
    { dctcp = true; k = 20 };
    { dctcp = false; k = 10 };
    { dctcp = false; k = 20 };
  ]

let variant_name v =
  Printf.sprintf "%s, K=%d" (if v.dctcp then "DCTCP" else "Halving cwnd") v.k

let rate = Net.Units.gbps 1.

let seed = 7

(* zero-load RTT 225 us: 2 * (2 * 25 us + 62.5 us) *)
let testbed ~net ~disc =
  Net.Testbed.create ~net ~n_left:4 ~n_right:4
    ~bottlenecks:[ { Net.Testbed.rate; delay = Time.ns 62_500; disc } ]
    ~access_delay:(Time.us 25) ()

let run ~scale ~seed ?(telemetry = Xmp_telemetry.Sink.null) ~faults v =
  let interval = 5. *. scale in
  let horizon_s = 7. *. interval in
  let config = { Sim.default_config with seed; telemetry; faults } in
  let cluster = Net.Shard.create ~config ~shards:1 () in
  let sim = Net.Shard.sim cluster 0 and net = Net.Shard.net cluster 0 in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark v.k)
      ~capacity_pkts:100
  in
  let tb = testbed ~net ~disc in
  ignore (Xmp_faults.Injector.install ~net ());
  let probe =
    Probe.create ~sim ~bucket_s:(interval /. 10.) ~horizon_s
  in
  let coupling =
    if v.dctcp then
      Coupling.uncoupled ~name:"dctcp" (fun view ->
          Xmp_transport.Dctcp.make view)
    else
      Coupling.uncoupled ~name:"halving" (fun view ->
          Xmp_core.Bos.make
            ~params:{ Xmp_core.Bos.default_params with beta = 2 }
            () view)
  in
  let config =
    if v.dctcp then Xmp_core.Xmp.dctcp_tcp_config else Xmp_core.Xmp.tcp_config
  in
  let flows = Array.make 4 None in
  for i = 0 to 3 do
    let name = Printf.sprintf "Flow %d" (i + 1) in
    let rec_fn = Probe.recorder probe name in
    Sim.at sim
      (Time.sec (float_of_int i *. interval))
      (fun () ->
        flows.(i) <-
          Some
            (Mptcp_flow.create ~net ~flow:(i + 1)
               ~src:(Net.Testbed.left_id tb i)
               ~dst:(Net.Testbed.right_id tb i)
               ~paths:[ 0 ] ~coupling ~config
               ~observer:
                 {
                   Mptcp_flow.silent with
                   on_subflow_acked = (fun _ n -> rec_fn n);
                 }
               ()))
  done;
  (* stop flows 1..3 one by one; flow 4 runs to the end *)
  for i = 0 to 2 do
    Sim.at sim
      (Time.sec (float_of_int (4 + i) *. interval))
      (fun () ->
        match flows.(i) with
        | Some f -> Mptcp_flow.stop f
        | None -> ())
  done;
  Net.Shard.run ~until:(Time.sec horizon_s) cluster;
  let names = List.init 4 (fun i -> Printf.sprintf "Flow %d" (i + 1)) in
  let rates =
    List.map
      (fun n -> (n, Probe.normalized probe n ~norm_bps:(float_of_int rate)))
      names
  in
  (* all four flows are active during [3*interval, 4*interval) *)
  let jain =
    Xmp_stats.Fairness.jain
      (List.map
         (fun n ->
           Probe.window_mean probe n ~from_s:(3.2 *. interval)
             ~until_s:(4. *. interval))
         names)
  in
  let utilization =
    Net.Link.utilization
      (Option.get (Net.Network.find_link net ~name:"IN1->OUT1"))
      ~duration:(Time.sec horizon_s)
  in
  {
    variant = v;
    bucket_s = Probe.bucket_s probe;
    rates;
    utilization;
    jain_all_active = jain;
  }

let print r =
  Render.subheading
    (Printf.sprintf "Figure 1 panel: %s" (variant_name r.variant));
  Render.series_table ~bucket_s:r.bucket_s ~every:2 r.rates;
  Render.printf
    "bottleneck utilization = %.3f, Jain index (4 flows active) = %.3f\n"
    r.utilization r.jain_all_active
