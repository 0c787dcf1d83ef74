module Coupling = Xmp_mptcp.Coupling
module Cc = Xmp_transport.Cc
module Tel = Xmp_telemetry

let delta ~own_cwnd ~total_rate ~min_rtt_s =
  if total_rate <= 0. || min_rtt_s <= 0. || min_rtt_s = Float.max_float then
    1.
  else own_cwnd /. (total_rate *. min_rtt_s)

(* the subflow's δ at a round end, read off its coupling group *)
let subflow_delta s =
  let g = Bos.ctx s in
  let d =
    delta ~own_cwnd:(Bos.cwnd s) ~total_rate:(Coupling.total_rate g)
      ~min_rtt_s:(Coupling.min_srtt g)
  in
  let view = Bos.view s in
  let tel = view.Cc.telemetry in
  if Tel.Sink.active tel.Tel.Sink.sink then
    Tel.Sink.event tel.Tel.Sink.sink ~time_ns:(view.Cc.now ())
      (Tel.Event.Trash_delta
         {
           flow = tel.Tel.Sink.flow;
           subflow = tel.Tel.Sink.subflow;
           delta = d;
         });
  d

let ops = Bos.ops ~name:"xmp" ~delta:subflow_delta ~on_round:ignore

let coupling ?params () =
  Coupling.coupled ~name:"xmp" (fun g view -> Bos.create ops ?params g view)
