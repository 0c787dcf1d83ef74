module Time = Xmp_engine.Time

type params = {
  g : float;
  init_alpha : float;
  init_cwnd : float;
  min_cwnd : float;
  d_min : float;
  d_max : float;
}

let default_params =
  {
    g = 1. /. 16.;
    init_alpha = 1.;
    init_cwnd = 3.;
    min_cwnd = 1.;
    d_min = 0.5;
    d_max = 2.0;
  }

type deadline = { total_segments : int; deadline_at : Time.t }

let imminence ~params ~remaining_segments ~rate_segments_per_s ~time_left_s =
  if remaining_segments <= 0 then params.d_min
  else if time_left_s <= 0. || rate_segments_per_s <= 0. then params.d_max
  else begin
    let needed_s = float_of_int remaining_segments /. rate_segments_per_s in
    Float.min params.d_max (Float.max params.d_min (needed_s /. time_left_s))
  end

type ctx = { params : params; deadline : deadline option; acked : unit -> int }

let imminence_now c (view : Cc.view) ~cwnd =
  match c.deadline with
  | None -> 1.
  | Some dl ->
    let now = view.Cc.now () in
    let srtt = view.Cc.srtt in
    let rate =
      if Time.compare srtt Time.zero > 0 then cwnd /. Time.to_float_s srtt
      else 0.
    in
    imminence ~params:c.params
      ~remaining_segments:(dl.total_segments - c.acked ())
      ~rate_segments_per_s:rate
      ~time_left_s:(Time.to_float_s (Time.sub dl.deadline_at now))

(* the D2TCP gamma correction: penalty = alpha^d / 2 *)
let d2tcp_ops =
  Dctcp.ops ~name:"d2tcp" ~penalty:(fun c view ~alpha ~cwnd ->
      (alpha ** imminence_now c view ~cwnd) /. 2.)

let make_cc ?(params = default_params) ?deadline ~acked () view =
  Dctcp.create d2tcp_ops
    {
      Dctcp.g = params.g;
      init_alpha = params.init_alpha;
      init_cwnd = params.init_cwnd;
      min_cwnd = params.min_cwnd;
    }
    { params; deadline; acked } view
