module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Mptcp_flow = Xmp_mptcp.Mptcp_flow

type result = {
  beta : int;
  k : int;
  interval_s : float;
  rates : (string * float array) list;
}

let capacities_gbps = [ 0.8; 1.2; 2.0; 1.5; 0.5 ]

let seed = 17

(* zero-load RTT 350 us: 2 * (2 * 40 us + 95 us) *)
let testbed ~net ~disc =
  Net.Testbed.create ~net ~n_left:9 ~n_right:9
    ~bottlenecks:
      (List.map
         (fun g ->
           { Net.Testbed.rate = Net.Units.gbps g; delay = Time.us 95; disc })
         capacities_gbps)
    ~access_delay:(Time.us 40) ()

let run ~scale ~seed ?(telemetry = Xmp_telemetry.Sink.null) ~faults ~beta ~k () =
  let unit_s = 5. *. scale in
  let horizon_s = 14. *. unit_s (* paper: 70 s *) in
  let config = { Sim.default_config with seed; telemetry; faults } in
  let cluster = Net.Shard.create ~config ~shards:1 () in
  let sim = Net.Shard.sim cluster 0 and net = Net.Shard.net cluster 0 in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark k)
      ~capacity_pkts:100
  in
  let tb = testbed ~net ~disc in
  ignore (Xmp_faults.Injector.install ~net ());
  let params = { Xmp_core.Bos.default_params with beta } in
  let probe = Probe.create ~sim ~bucket_s:unit_s ~horizon_s in
  (* Flows 1..5: subflow 1 on L_i, subflow 2 on L_{i+1 mod 5} *)
  for i = 0 to 4 do
    let names =
      [ Printf.sprintf "F%d-1" (i + 1); Printf.sprintf "F%d-2" (i + 1) ]
    in
    let recorders = Array.of_list (List.map (Probe.recorder probe) names) in
    Sim.at sim
      (Time.sec (float_of_int i *. unit_s))
      (fun () ->
        ignore
          (Mptcp_flow.create ~net ~flow:(i + 1)
             ~src:(Net.Testbed.left_id tb i)
             ~dst:(Net.Testbed.right_id tb i)
             ~paths:[ i; (i + 1) mod 5 ]
             ~coupling:(Xmp_core.Trash.coupling ~params ())
             ~config:Xmp_core.Xmp.tcp_config
             ~observer:
               {
                 Mptcp_flow.silent with
                 on_subflow_acked = (fun idx n -> recorders.(idx) n);
               }
             ()))
  done;
  (* four background flows on L3 (index 2): arrive at units 5..8, leave at
     units 9..12 *)
  for j = 0 to 3 do
    Sim.at sim
      (Time.sec (float_of_int (5 + j) *. unit_s))
      (fun () ->
        let f =
          Mptcp_flow.create ~net ~flow:(10 + j)
            ~src:(Net.Testbed.left_id tb (5 + j))
            ~dst:(Net.Testbed.right_id tb (5 + j))
            ~paths:[ 2 ]
            ~coupling:(Xmp_core.Trash.coupling ~params ())
            ~config:Xmp_core.Xmp.tcp_config ()
        in
        Sim.at sim
          (Time.sec (float_of_int (9 + j) *. unit_s))
          (fun () -> Mptcp_flow.stop f))
  done;
  (* L3 goes down at unit 12 (paper: 60 s) *)
  let l3 name = Option.get (Net.Network.find_link net ~name) in
  let l3_fwd = l3 "IN3->OUT3" and l3_rev = l3 "OUT3->IN3" in
  Sim.at sim
    (Time.sec (12. *. unit_s))
    (fun () ->
      Net.Link.set_up l3_fwd false;
      Net.Link.set_up l3_rev false);
  Net.Shard.run ~until:(Time.sec horizon_s) cluster;
  let names =
    List.concat_map
      (fun i -> [ Printf.sprintf "F%d-1" i; Printf.sprintf "F%d-2" i ])
      [ 1; 2; 3; 4; 5 ]
  in
  let rates =
    List.map
      (fun n -> (n, Probe.normalized probe n ~norm_bps:(Net.Units.gbps 1. |> float_of_int)))
      names
  in
  { beta; k; interval_s = unit_s; rates }

let print r =
  Render.subheading
    (Printf.sprintf "Figure 7 panel: beta = %d, K = %d" r.beta r.k);
  Render.series_table ~bucket_s:r.interval_s r.rates
