module Reno = Xmp_transport.Reno
module Cc = Xmp_transport.Cc

let alpha ~windows_rtts =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. windows_rtts in
  let best =
    List.fold_left
      (fun acc (w, rtt_s) ->
        if rtt_s > 0. then Float.max acc (w /. (rtt_s *. rtt_s)) else acc)
      0. windows_rtts
  in
  let denom =
    List.fold_left
      (fun acc (w, rtt_s) -> if rtt_s > 0. then acc +. (w /. rtt_s) else acc)
      0. windows_rtts
  in
  if denom <= 0. || total <= 0. then 0.
  else total *. best /. (denom *. denom)

let increase g ~cwnd =
  let windows_rtts =
    List.map
      (fun m -> (Cc.cwnd m, Coupling.srtt_s m))
      (Coupling.members g)
  in
  let total = Coupling.total_cwnd g in
  let a = alpha ~windows_rtts in
  if total <= 0. then 1. /. cwnd else Float.min (a /. total) (1. /. cwnd)

let ops =
  Reno.ops ~name:"lia"
    ~increase:(fun s ~cwnd -> increase (Reno.ctx s) ~cwnd)
    ~backoff:Reno.halving

let coupling () =
  Coupling.coupled ~name:"lia" (fun g view -> Reno.create ops g view)
