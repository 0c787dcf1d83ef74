type t = { bucket : float; sums : float array }

let create ~bucket ~horizon =
  if (not (Float.is_finite bucket)) || bucket <= 0. then
    invalid_arg "Timeseries.create: bucket must be finite and positive";
  if (not (Float.is_finite horizon)) || horizon < bucket then
    invalid_arg "Timeseries.create: horizon must be finite and >= bucket";
  let n = int_of_float (Float.ceil (horizon /. bucket)) in
  { bucket; sums = Array.make n 0. }

let record t ~time_s v =
  if time_s >= 0. then begin
    let i = int_of_float (time_s /. t.bucket) in
    if i < Array.length t.sums then t.sums.(i) <- t.sums.(i) +. v
  end

let rates t = Array.map (fun s -> s /. t.bucket) t.sums
