module Time = Xmp_engine.Time

let initial_srtt = Time.ms 200
let initial_rttvar = Time.ms 100

(* RFC 6298: alpha = 1/8, beta = 1/4; [smooth_rttvar] takes the srtt
   from before the sample *)
let smooth_srtt ~srtt rtt = Time.div (Time.add (Time.mul srtt 7) rtt) 8

let smooth_rttvar ~srtt ~rttvar rtt =
  Time.div (Time.add (Time.mul rttvar 3) (abs (Time.sub srtt rtt))) 4

let sample (v : Cc.view) ~rttvar rtt =
  if Time.compare rtt Time.zero < 0 then
    invalid_arg "Rtt_estimator.sample: negative";
  let first = Time.is_infinite v.min_rtt in
  if Time.compare rtt v.min_rtt < 0 then v.min_rtt <- rtt;
  if first then begin
    v.srtt <- rtt;
    Time.div rtt 2
  end
  else begin
    let rttvar = smooth_rttvar ~srtt:v.srtt ~rttvar rtt in
    v.srtt <- smooth_srtt ~srtt:v.srtt rtt;
    rttvar
  end

let timeout ~rto_min ~rto_max ~granularity ~srtt ~rttvar ~backoff =
  (* RFC 6298 (2.4): RTO = SRTT + max(G, 4 * RTTVAR). Without the
     granularity term rttvar decays geometrically toward zero on a
     steady path, and with a small rto_min the RTO converges to ~srtt —
     so the delayed-ACK hold on a transfer's last odd segment fires a
     spurious timeout on a perfectly clean link. The 200 ms default
     floor masked this; WAN-scale floors (~ms) don't. *)
  let base = Time.add srtt (Time.max granularity (Time.mul rttvar 4)) in
  let clamped = Time.max rto_min (Time.min rto_max base) in
  let backed = clamped * (1 lsl Int.min backoff 16) in
  Time.min rto_max backed
