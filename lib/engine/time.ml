type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec s = int_of_float (Float.round (s *. 1e9))
let of_float_s = sec
let to_float_s t = float_of_int t /. 1e9
let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let add = ( + )
let sub = ( - )
let mul = ( * )
let div = ( / )
let min = Int.min
let max = Int.max
let compare = Int.compare
let infinity = max_int
let is_infinite t = t >= max_int

let pp fmt t =
  if is_infinite t then Format.pp_print_string fmt "inf"
  else if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%dus" (t / 1_000)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.3fms" (to_ms t)
  else Format.fprintf fmt "%.3fs" (to_float_s t)
