type rate = int

let mbps r = int_of_float (r *. 1e6)
let gbps r = int_of_float (r *. 1e9)

let tx_time rate ~bytes =
  if rate <= 0 then invalid_arg "Units.tx_time: rate must be positive";
  let bits = bytes * 8 in
  (* ceil (bits * 1e9 / rate) *)
  ((bits * 1_000_000_000) + rate - 1) / rate

let to_gbps r = float_of_int r /. 1e9
let bytes_per_sec r = float_of_int r /. 8.
