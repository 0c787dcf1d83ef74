type t = { mutable n : int; mutable mean : float }

let create () = { n = 0; mean = 0. }

(* Welford's update: the mean moves by each sample's share of its
   distance from the mean so far *)
let add t x =
  t.n <- t.n + 1;
  t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n)

let mean t = t.mean
