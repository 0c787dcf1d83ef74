module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Mptcp_flow = Xmp_mptcp.Mptcp_flow
module Scheme = Xmp_workload.Scheme

type result = {
  beta : int;
  bucket_s : float;
  subflow_rates : (string * float array) list;
  flow_rates : (string * float array) list;
  jain_flows : float;
}

let seed = 13

(* Figure 3(b): the Figure 3(a) testbed down to one bottleneck *)
let geometry = { Fig4.geometry with hosts = 4; rates = [ Fig4.bottleneck_rate ] }

let run ~scale ~seed ?(telemetry = Xmp_telemetry.Sink.null) ~faults ~beta () =
  let unit_s = 5. *. scale in
  let horizon_s = 6. *. unit_s (* paper: 30 s *) in
  Panel.run geometry ~seed ~telemetry ~faults
    ~queue:(Net.Queue_disc.Threshold_mark 15) ~capacity_pkts:100
    ~bucket_s:(unit_s /. 10.) ~horizon_s
  @@ fun env ->
  let xmp = Scheme.launcher (Scheme.xmp 3) { Scheme.default_overrides with beta } in
  (* every subflow of flow f, added ones included, records as "Flow f-j" *)
  let names flow subflows =
    List.init subflows (fun j -> Printf.sprintf "Flow %d-%d" flow (j + 1))
  in
  let launch ~flow ~host ~subflows ~paths =
    Panel.flow env ~observer:(Panel.series env (names flow subflows)) ~flow
      ~host ~paths xmp
  in
  (* Flow 1: subflows at 0, 5, 15 s *)
  let f1 = launch ~flow:1 ~host:0 ~subflows:3 ~paths:[ 0 ] in
  List.iter
    (fun u ->
      Sim.at env.sim
        (Time.sec (u *. unit_s))
        (fun () -> ignore (Mptcp_flow.add_subflow f1 ~path:0)))
    [ 1.; 3. ];
  (* Flow 2: two subflows at 20 s *)
  Sim.at env.sim
    (Time.sec (4. *. unit_s))
    (fun () -> ignore (launch ~flow:2 ~host:1 ~subflows:2 ~paths:[ 0; 0 ]));
  (* Flows 3 and 4: single path; stop at 25 s *)
  let f3 = launch ~flow:3 ~host:2 ~subflows:1 ~paths:[ 0 ] in
  let f4_cell = ref None in
  Sim.at env.sim
    (Time.sec (2. *. unit_s))
    (fun () -> f4_cell := Some (launch ~flow:4 ~host:3 ~subflows:1 ~paths:[ 0 ]));
  Sim.at env.sim
    (Time.sec (5. *. unit_s))
    (fun () ->
      Mptcp_flow.stop f3;
      match !f4_cell with Some f -> Mptcp_flow.stop f | None -> ());
  fun () ->
    let norm = float_of_int Fig4.bottleneck_rate in
    let names =
      List.concat_map
        (fun (flow, n) -> names flow n)
        [ (1, 3); (2, 2); (3, 1); (4, 1) ]
    in
    let subflow_rates =
      List.map (fun n -> (n, Probe.normalized env.probe n ~norm_bps:norm)) names
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
      bucket_s = Probe.bucket_s env.probe;
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
