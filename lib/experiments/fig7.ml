module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Mptcp_flow = Xmp_mptcp.Mptcp_flow
module Scheme = Xmp_workload.Scheme

type result = {
  beta : int;
  k : int;
  interval_s : float;
  rates : (string * float array) list;
}

let capacities_gbps = [ 0.8; 1.2; 2.0; 1.5; 0.5 ]

let seed = 17

(* zero-load RTT 350 us: 2 * (2 * 40 us + 95 us) *)
let geometry =
  {
    Panel.hosts = 9;
    rates = List.map Net.Units.gbps capacities_gbps;
    delay = Time.us 95;
    access_delay = Time.us 40;
  }

let run ~scale ~seed ?(telemetry = Xmp_telemetry.Sink.null) ~faults ~beta ~k () =
  let unit_s = 5. *. scale in
  let horizon_s = 14. *. unit_s (* paper: 70 s *) in
  Panel.run geometry ~seed ~telemetry ~faults
    ~queue:(Net.Queue_disc.Threshold_mark k) ~capacity_pkts:100
    ~bucket_s:unit_s ~horizon_s
  @@ fun env ->
  let xmp = Scheme.launcher (Scheme.xmp 2) { Scheme.default_overrides with beta } in
  let names i = [ Printf.sprintf "F%d-1" i; Printf.sprintf "F%d-2" i ] in
  (* Flows 1..5: subflow 1 on L_i, subflow 2 on L_{i+1 mod 5} *)
  for i = 0 to 4 do
    let observer = Panel.series env (names (i + 1)) in
    Sim.at env.sim
      (Time.sec (float_of_int i *. unit_s))
      (fun () ->
        ignore
          (Panel.flow env ~observer ~flow:(i + 1) ~host:i
             ~paths:[ i; (i + 1) mod 5 ]
             xmp))
  done;
  (* four background flows on L3 (index 2): arrive at units 5..8, leave at
     units 9..12 *)
  for j = 0 to 3 do
    Sim.at env.sim
      (Time.sec (float_of_int (5 + j) *. unit_s))
      (fun () ->
        let f = Panel.flow env ~flow:(10 + j) ~host:(5 + j) ~paths:[ 2 ] xmp in
        Sim.at env.sim
          (Time.sec (float_of_int (9 + j) *. unit_s))
          (fun () -> Mptcp_flow.stop f))
  done;
  (* L3 goes down at unit 12 (paper: 60 s) *)
  let l3 name = Option.get (Net.Network.find_link env.net ~name) in
  let l3_fwd = l3 "IN3->OUT3" and l3_rev = l3 "OUT3->IN3" in
  Sim.at env.sim
    (Time.sec (12. *. unit_s))
    (fun () ->
      Net.Link.set_up l3_fwd false;
      Net.Link.set_up l3_rev false);
  fun () ->
    let rates =
      List.map
        (fun n -> (n, Probe.normalized env.probe n ~norm_bps:(Net.Units.gbps 1. |> float_of_int)))
        (List.concat_map names [ 1; 2; 3; 4; 5 ])
    in
    { beta; k; interval_s = unit_s; rates }

let print r =
  Render.subheading
    (Printf.sprintf "Figure 7 panel: beta = %d, K = %d" r.beta r.k);
  Render.series_table ~bucket_s:r.interval_s r.rates
