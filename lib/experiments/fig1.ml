module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Mptcp_flow = Xmp_mptcp.Mptcp_flow
module Coupling = Xmp_mptcp.Coupling
module Scheme = Xmp_workload.Scheme

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

let geometry =
  {
    Panel.hosts = 4;
    rates = [ rate ];
    delay = Time.ns 62_500;
    access_delay = Time.us 25;
  }

(* "Halving cwnd" is BOS at beta = 2 and delta = 1, which no Scheme names,
   so its flows carry their own coupling. *)
let halving =
  let params = { Xmp_core.Bos.default_params with beta = 2 } in
  Coupling.uncoupled ~name:"halving" (fun view -> Xmp_core.Bos.make ~params () view)

let run ~scale ~seed ?(telemetry = Xmp_telemetry.Sink.null) ~faults v =
  let interval = 5. *. scale in
  let horizon_s = 7. *. interval in
  Panel.run geometry ~seed ~telemetry ~faults
    ~queue:(Net.Queue_disc.Threshold_mark v.k) ~capacity_pkts:100
    ~bucket_s:(interval /. 10.) ~horizon_s
  @@ fun env ->
  let dctcp = Scheme.launcher Scheme.dctcp Scheme.default_overrides in
  let launch i observer =
    if v.dctcp then
      Panel.flow env ~observer ~flow:(i + 1) ~host:i ~paths:[ 0 ] dctcp
    else
      Mptcp_flow.create ~net:env.net ~flow:(i + 1)
        ~src:(Net.Testbed.left_id env.testbed i)
        ~dst:(Net.Testbed.right_id env.testbed i)
        ~paths:[ 0 ] ~coupling:halving ~config:Xmp_core.Xmp.tcp_config
        ~observer ()
  in
  let names = List.init 4 (fun i -> Printf.sprintf "Flow %d" (i + 1)) in
  let flows = Array.make 4 None in
  List.iteri
    (fun i name ->
      let observer = Panel.series env [ name ] in
      Sim.at env.sim
        (Time.sec (float_of_int i *. interval))
        (fun () -> flows.(i) <- Some (launch i observer)))
    names;
  (* stop flows 1..3 one by one; flow 4 runs to the end *)
  for i = 0 to 2 do
    Sim.at env.sim
      (Time.sec (float_of_int (4 + i) *. interval))
      (fun () -> Option.iter Mptcp_flow.stop flows.(i))
  done;
  fun () ->
    let rates =
      List.map
        (fun n ->
          (n, Probe.normalized env.probe n ~norm_bps:(float_of_int rate)))
        names
    in
    (* all four flows are active during [3*interval, 4*interval) *)
    let jain =
      Xmp_stats.Fairness.jain
        (List.map
           (fun n ->
             Probe.window_mean env.probe n ~from_s:(3.2 *. interval)
               ~until_s:(4. *. interval))
           names)
    in
    let utilization =
      Net.Link.utilization
        (Option.get (Net.Network.find_link env.net ~name:"IN1->OUT1"))
        ~duration:(Time.sec horizon_s)
    in
    {
      variant = v;
      bucket_s = Probe.bucket_s env.probe;
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
