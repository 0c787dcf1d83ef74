type t = { beta : int; k : int }

let make ~beta ~k =
  if beta < 2 then invalid_arg "Params.make: beta must be >= 2";
  if k < 1 then invalid_arg "Params.make: k must be >= 1";
  { beta; k }

let default = make ~beta:4 ~k:10

let bdp_packets ~rate ~rtt ~packet_bytes =
  if packet_bytes <= 0 then invalid_arg "Params.bdp_packets";
  float_of_int rate
  *. Xmp_engine.Time.to_float_s rtt
  /. (8. *. float_of_int packet_bytes)

let min_k ~bdp_packets ~beta =
  if beta < 2 then invalid_arg "Params.min_k: beta must be >= 2";
  Int.max 1 (int_of_float (Float.ceil (bdp_packets /. float_of_int (beta - 1))))

let sufficient t ~bdp_packets = t.k >= min_k ~bdp_packets ~beta:t.beta

let for_network ~rate ~rtt ~beta =
  let bdp =
    bdp_packets ~rate ~rtt ~packet_bytes:Xmp_net.Packet.data_wire_bytes
  in
  make ~beta ~k:(min_k ~bdp_packets:bdp ~beta)
