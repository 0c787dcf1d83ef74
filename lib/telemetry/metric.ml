(* The three scalar metric shapes held by the registry.

   All of them are O(1) per update and bounded in memory regardless of how
   many samples they absorb, so instrumented hot paths never accumulate
   per-sample state. *)

module Counter = struct
  type t = { mutable count : int }

  let create () = { count = 0 }

  let inc ?(by = 1) t =
    if by < 0 then invalid_arg "Telemetry.Metric.Counter.inc: negative";
    t.count <- t.count + by

  let value t = t.count
end

module Gauge = struct
  type t = {
    mutable value : float;
    mutable samples : int;
  }

  let create () = { value = 0.; samples = 0 }

  let set t v =
    t.value <- v;
    t.samples <- t.samples + 1

  let value t = t.value
  let samples t = t.samples
end

module Histogram = struct
  (* Logarithmic buckets: a sample v > 0 lands in bucket
     floor(log v / log gamma), so each bucket spans a fixed ratio gamma and
     a percentile read off the bucket midpoint carries a bounded *relative*
     error of about (gamma - 1) / 2, independent of the value range.
     Memory is O(occupied buckets), not O(samples). Samples <= 0 are
     folded into a dedicated zero bucket. *)
  type t = {
    counts : (int, int ref) Hashtbl.t;
    mutable zero : int;
    mutable n : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let gamma = 1.05
  let log_gamma = Float.log gamma

  let create () =
    {
      counts = Hashtbl.create 64;
      zero = 0;
      n = 0;
      sum = 0.;
      minv = Float.infinity;
      maxv = Float.neg_infinity;
    }

  let add t v =
    if Float.is_finite v then begin
      t.n <- t.n + 1;
      t.sum <- t.sum +. v;
      if v < t.minv then t.minv <- v;
      if v > t.maxv then t.maxv <- v;
      if v <= 0. then t.zero <- t.zero + 1
      else begin
        let b = int_of_float (Float.floor (Float.log v /. log_gamma)) in
        match Hashtbl.find_opt t.counts b with
        | Some r -> incr r
        | None -> Hashtbl.add t.counts b (ref 1)
      end
    end

  let count t = t.n
  let sum t = t.sum
  let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n
  let min_value t = if t.n = 0 then 0. else t.minv
  let max_value t = if t.n = 0 then 0. else t.maxv

  let percentile t p =
    if t.n = 0 then 0.
    else begin
      let p = Float.max 0. (Float.min 100. p) in
      (* nearest-rank, 1-based, consistent with Stats.Distribution's
         interpolation to within one bucket *)
      let rank =
        1 + int_of_float (Float.round (p /. 100. *. float_of_int (t.n - 1)))
      in
      if rank <= t.zero then 0.
      else begin
        let buckets =
          Hashtbl.fold (fun b r acc -> (b, !r) :: acc) t.counts []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        let rec go seen = function
          | [] -> t.maxv
          | (b, c) :: rest ->
            let seen = seen + c in
            if rank <= seen then
              let lo = gamma ** float_of_int b in
              (* bucket midpoint, clamped to the observed range *)
              Float.min t.maxv
                (Float.max t.minv (lo *. (1. +. gamma) /. 2.))
            else go seen rest
        in
        go t.zero buckets
      end
    end
end
