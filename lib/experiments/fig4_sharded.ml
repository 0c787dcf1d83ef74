module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Mptcp_flow = Xmp_mptcp.Mptcp_flow
module Scheme = Xmp_workload.Scheme

(* The Figure-4 traffic-shifting dynamic restaged on a pod-sharded k=4
   fat tree (one shard per pod, portals at the core layer). The shared
   bottlenecks are pod 0's two edge-to-aggregation uplinks: Flow 2's two
   subflows leave edge 0 through agg 0 and agg 1 respectively, and two
   pod-local background flows load first the agg-0 uplink, then the
   agg-1 uplink, so Flow 2 shifts across — the fig4 schedule, with the
   dumbbell's DN1/DN2 played by e0.0->a0.0 and e0.0->a0.1.

   Every sender lives in pod 0, so all observers record on shard 0's
   clock; receivers sit in pods 1 and 2, exercising the split-transport
   path (data out through the core portals, ACKs back). Background flows
   are pod-local on purpose: they start and stop mid-run, and creating a
   cross-shard flow from inside an epoch would race the other domain. *)

type result = {
  beta : int;
  domains : int;
  bucket_s : float;
  rates : (string * float array) list;
  loaded_share : float;  (* Flow 2-1 share of Flow 2 while agg 0 is loaded *)
  recovered_share : float;  (* same share once the load moves to agg 1 *)
  events : int;
  mail : int;
}

let bottleneck_rate = Net.Units.mbps 300.

let seed = 11

let run ?(scale = 0.2) ?(seed = seed) ?(domains = 1) ~beta () =
  let unit_s = 10. *. scale in
  let horizon_s = 4. *. unit_s in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 15)
      ~capacity_pkts:100
  in
  let cluster =
    Net.Shard.create ~config:{ Sim.default_config with Sim.seed } ~shards:4 ()
  in
  let topo =
    Net.Fat_tree.create ~cluster ~k:4 ~rate:bottleneck_rate ~disc ()
  in
  (* k=4: pod p holds hosts (p, e, s) = 4p + 2e + s *)
  let host pod e s = (pod * 4) + (e * 2) + s in
  let sim0 = Net.Shard.sim cluster 0 in
  let probe = Probe.create ~sim:sim0 ~bucket_s:(unit_s /. 20.) ~horizon_s in
  let xmp = Scheme.launcher (Scheme.xmp 2) { Scheme.default_overrides with beta } in
  let launch ~flow ~src ~dst ~paths ~probe_names =
    let recorders =
      Array.of_list (List.map (Probe.recorder probe) probe_names)
    in
    let net = Net.Topology.host_net topo src in
    let rcv_net = Net.Topology.host_net topo dst in
    ignore
      (Scheme.launch ~net ~rcv_net ~flow ~src ~dst ~paths
         ~observer:
           {
             Scheme.silent with
             on_subflow_acked = (fun idx n -> recorders.(idx) n);
           }
         xmp)
  in
  (* Inter-pod path p maps to agg (p / 2 mod 2) and core group column
     (p mod 2): paths 0 and 3 diverge at the edge and stay disjoint
     through the core. *)
  launch ~flow:1 ~src:(host 0 0 0) ~dst:(host 1 0 0) ~paths:[ 0 ]
    ~probe_names:[ "Flow 1" ];
  launch ~flow:2 ~src:(host 0 0 1) ~dst:(host 2 0 0) ~paths:[ 0; 3 ]
    ~probe_names:[ "Flow 2-1"; "Flow 2-2" ];
  launch ~flow:3 ~src:(host 0 1 0) ~dst:(host 2 1 0) ~paths:[ 3 ]
    ~probe_names:[ "Flow 3" ];
  (* Pod-local background: [path] picks the aggregation switch for an
     inter-rack flow, so path 0 loads e0.0->a0.0 and path 1 loads
     e0.0->a0.1. Created and stopped from shard 0's own events. *)
  let background ~flow ~src ~dst ~path ~from_u ~until_u =
    Sim.at sim0
      (Time.sec (from_u *. unit_s))
      (fun () ->
        let net = Net.Topology.host_net topo src in
        let f = Scheme.launch ~net ~flow ~src ~dst ~paths:[ path ] xmp in
        Sim.at sim0
          (Time.sec (until_u *. unit_s))
          (fun () -> Mptcp_flow.stop f))
  in
  background ~flow:4 ~src:(host 0 0 0) ~dst:(host 0 1 0) ~path:0 ~from_u:1.
    ~until_u:2.;
  background ~flow:5 ~src:(host 0 0 0) ~dst:(host 0 1 1) ~path:1 ~from_u:2.
    ~until_u:3.;
  Net.Shard.run ~domains ~until:(Time.sec horizon_s) cluster;
  let norm = float_of_int bottleneck_rate in
  let rates =
    List.map
      (fun n -> (n, Probe.normalized probe n ~norm_bps:norm))
      [ "Flow 2-1"; "Flow 2-2" ]
  in
  let share ~from_u ~until_u =
    let mean name =
      Probe.window_mean probe name ~from_s:(from_u *. unit_s)
        ~until_s:(until_u *. unit_s)
    in
    let a = mean "Flow 2-1" and b = mean "Flow 2-2" in
    if a +. b > 0. then a /. (a +. b) else 0.
  in
  {
    beta;
    domains;
    bucket_s = Probe.bucket_s probe;
    rates;
    loaded_share = share ~from_u:1.3 ~until_u:2.;
    recovered_share = share ~from_u:2.3 ~until_u:3.;
    events = Net.Shard.events_executed cluster;
    mail = Net.Shard.mail_injected cluster;
  }

let print r =
  Render.subheading
    (Printf.sprintf "Sharded fat tree: beta = %d, %d pod shards" r.beta 4);
  Render.series_table ~bucket_s:r.bucket_s ~every:2 r.rates;
  Render.printf
    "Flow 2-1 share: agg-0 loaded = %.3f, agg-1 loaded = %.3f\n"
    r.loaded_share r.recovered_share;
  Render.printf "events executed = %d, portal mail = %d\n" r.events r.mail

let run_and_print ?scale ?(domains = 1) () =
  Render.heading
    "Figure 4 on a pod-sharded fat tree (k=4, rates / 300 Mbps)";
  print (run ?scale ~domains ~beta:4 ())
