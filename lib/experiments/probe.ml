module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Timeseries = Xmp_stats.Timeseries

type t = {
  sim : Sim.t;
  bucket_s : float;
  horizon_s : float;
  table : (string, Timeseries.t) Hashtbl.t;
  mutable order : string list;  (* reverse first-use order *)
}

let create ~sim ~bucket_s ~horizon_s =
  { sim; bucket_s; horizon_s; table = Hashtbl.create 16; order = [] }

let series t name =
  match Hashtbl.find_opt t.table name with
  | Some s -> s
  | None ->
    let s = Timeseries.create ~bucket:t.bucket_s ~horizon:t.horizon_s in
    Hashtbl.replace t.table name s;
    t.order <- name :: t.order;
    s

let recorder t name =
  let s = series t name in
  fun segments ->
    let bits = float_of_int (segments * Xmp_net.Packet.payload_bytes * 8) in
    Timeseries.record s ~time_s:(Time.to_float_s (Sim.now t.sim)) bits

let names t = List.rev t.order

let rates_bps t name =
  match Hashtbl.find_opt t.table name with
  | Some s -> Timeseries.rates s
  | None ->
    Array.make
      (int_of_float (Float.ceil (t.horizon_s /. t.bucket_s)))
      0.

let normalized t name ~norm_bps =
  Array.map (fun r -> r /. norm_bps) (rates_bps t name)

let bucket_s t = t.bucket_s

let window_mean t name ~from_s ~until_s =
  let rates = rates_bps t name in
  let lo = int_of_float (Float.ceil (from_s /. t.bucket_s)) in
  let hi =
    Stdlib.min (Array.length rates)
      (int_of_float (Float.floor (until_s /. t.bucket_s)))
  in
  if hi <= lo then 0.
  else begin
    let sum = ref 0. in
    for i = lo to hi - 1 do
      sum := !sum +. rates.(i)
    done;
    !sum /. float_of_int (hi - lo)
  end
