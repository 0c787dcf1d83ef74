type rate = int

let kbps r = int_of_float (r *. 1e3)
let mbps r = int_of_float (r *. 1e6)
let gbps r = int_of_float (r *. 1e9)

let tx_time rate ~bytes =
  if rate <= 0 then invalid_arg "Units.tx_time: rate must be positive";
  let bits = bytes * 8 in
  (* ceil (bits * 1e9 / rate) *)
  ((bits * 1_000_000_000) + rate - 1) / rate

let to_mbps r = float_of_int r /. 1e6
let to_gbps r = float_of_int r /. 1e9
let bytes_per_sec r = float_of_int r /. 8.

let pp_rate fmt r =
  if r >= 1_000_000_000 then Format.fprintf fmt "%.1fGbps" (to_gbps r)
  else if r >= 1_000_000 then Format.fprintf fmt "%.0fMbps" (to_mbps r)
  else Format.fprintf fmt "%dbps" r
