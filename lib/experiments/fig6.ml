module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Mptcp_flow = Xmp_mptcp.Mptcp_flow

type result = {
  beta : int;
  bucket_s : float;
  subflow_rates : (string * float array) list;
  flow_rates : (string * float array) list;
  jain_flows : float;
}

let bottleneck_rate = Net.Units.mbps 300.

let seed = 13

let testbed ~net ~disc =
  Net.Testbed.create ~net ~n_left:4 ~n_right:4
    ~bottlenecks:
      [ { Net.Testbed.rate = bottleneck_rate; delay = Time.us 600; disc } ]
    ~access_delay:(Time.us 150) ()

let run ~scale ~seed ?(telemetry = Xmp_telemetry.Sink.null) ~faults ~beta () =
  let unit_s = 5. *. scale in
  let horizon_s = 6. *. unit_s (* paper: 30 s *) in
  let config = { Sim.default_config with seed; telemetry; faults } in
  let cluster = Net.Shard.create ~config ~shards:1 () in
  let sim = Net.Shard.sim cluster 0 and net = Net.Shard.net cluster 0 in
  let disc () =
    Net.Queue_disc.create ~policy:(Net.Queue_disc.Threshold_mark 15)
      ~capacity_pkts:100
  in
  let tb = testbed ~net ~disc in
  ignore (Xmp_faults.Injector.install ~net ());
  let params = { Xmp_core.Bos.default_params with beta } in
  let probe = Probe.create ~sim ~bucket_s:(unit_s /. 10.) ~horizon_s in
  let subflow_names = ref [] in
  let launch ~flow ~host ~n_initial =
    let recorders = ref [||] in
    let add_recorder () =
      let name = Printf.sprintf "Flow %d-%d" flow (Array.length !recorders + 1) in
      subflow_names := name :: !subflow_names;
      recorders := Array.append !recorders [| Probe.recorder probe name |]
    in
    for _ = 1 to n_initial do
      add_recorder ()
    done;
    let f =
      Mptcp_flow.create ~net ~flow
        ~src:(Net.Testbed.left_id tb host)
        ~dst:(Net.Testbed.right_id tb host)
        ~paths:(List.init n_initial (fun _ -> 0))
        ~coupling:(Xmp_core.Trash.coupling ~params ())
        ~config:Xmp_core.Xmp.tcp_config
        ~observer:
          {
            Mptcp_flow.silent with
            on_subflow_acked = (fun idx n -> !recorders.(idx) n);
          }
        ()
    in
    (f, add_recorder)
  in
  (* Flow 1: subflows at 0, 5, 15 s *)
  let f1, f1_add = launch ~flow:1 ~host:0 ~n_initial:1 in
  List.iter
    (fun u ->
      Sim.at sim
        (Time.sec (u *. unit_s))
        (fun () ->
          f1_add ();
          ignore (Mptcp_flow.add_subflow f1 ~path:0)))
    [ 1.; 3. ];
  (* Flow 2: two subflows at 20 s *)
  Sim.at sim
    (Time.sec (4. *. unit_s))
    (fun () -> ignore (launch ~flow:2 ~host:1 ~n_initial:2));
  (* Flows 3 and 4: single path; stop at 25 s *)
  let f3, _ = launch ~flow:3 ~host:2 ~n_initial:1 in
  let f4_cell = ref None in
  Sim.at sim
    (Time.sec (2. *. unit_s))
    (fun () ->
      let f4, _ = launch ~flow:4 ~host:3 ~n_initial:1 in
      f4_cell := Some f4);
  Sim.at sim
    (Time.sec (5. *. unit_s))
    (fun () ->
      Mptcp_flow.stop f3;
      match !f4_cell with Some f -> Mptcp_flow.stop f | None -> ());
  Net.Shard.run ~until:(Time.sec horizon_s) cluster;
  let norm = float_of_int bottleneck_rate in
  let names = List.sort String.compare !subflow_names in
  let subflow_rates =
    List.map (fun n -> (n, Probe.normalized probe n ~norm_bps:norm)) names
  in
  let flow_of name = String.sub name 5 1 in
  let flow_ids = [ "1"; "2"; "3"; "4" ] in
  let flow_rates =
    List.map
      (fun fid ->
        let parts =
          List.filter_map
            (fun (n, arr) -> if flow_of n = fid then Some arr else None)
            subflow_rates
        in
        let len =
          List.fold_left (fun acc a -> Stdlib.max acc (Array.length a)) 0 parts
        in
        let sum = Array.make len 0. in
        List.iter
          (fun a -> Array.iteri (fun i x -> sum.(i) <- sum.(i) +. x) a)
          parts;
        ("Flow " ^ fid, sum))
      flow_ids
  in
  (* all four flows active in [4.2, 5.0) units *)
  let jain =
    Xmp_stats.Fairness.jain
      (List.map
         (fun (_, arr) ->
           let lo = int_of_float (4.2 *. 10.) and hi = 5 * 10 in
           let s = ref 0. in
           for i = lo to Stdlib.min (hi - 1) (Array.length arr - 1) do
             s := !s +. arr.(i)
           done;
           !s)
         flow_rates)
  in
  {
    beta;
    bucket_s = Probe.bucket_s probe;
    subflow_rates;
    flow_rates;
    jain_flows = jain;
  }

let print r =
  Render.subheading (Printf.sprintf "Figure 6 panel: beta = %d" r.beta);
  Render.series_table ~bucket_s:r.bucket_s ~every:2 r.subflow_rates;
  Render.printf "per-flow totals:\n";
  Render.series_table ~bucket_s:r.bucket_s ~every:5 r.flow_rates;
  Render.printf "Jain index across flows (all active) = %.3f\n" r.jain_flows
