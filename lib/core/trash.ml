module Coupling = Xmp_mptcp.Coupling
module Cc = Xmp_transport.Cc
module Tel = Xmp_telemetry

let delta ~own_cwnd ~total_rate ~min_rtt_s =
  if total_rate <= 0. || min_rtt_s <= 0. || min_rtt_s = Float.max_float then
    1.
  else own_cwnd /. (total_rate *. min_rtt_s)

let coupling ?(params = Bos.default_params) () =
  Coupling.coupled ~name:"xmp" (fun g view ->
      (* The subflow's own window getter only exists once the BOS instance
         is built; tie the knot through a cell. *)
      let own_cwnd = ref (fun () -> params.Bos.init_cwnd) in
      let subflow_delta () =
        let d =
          delta ~own_cwnd:(!own_cwnd ())
            ~total_rate:(Coupling.total_rate g)
            ~min_rtt_s:(Coupling.min_srtt g)
        in
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
      in
      let cc = Bos.make ~params ~delta:subflow_delta () view in
      own_cwnd := cc.Cc.cwnd;
      cc)
