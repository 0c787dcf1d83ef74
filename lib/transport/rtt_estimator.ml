module Time = Xmp_engine.Time

type t = {
  rto_min : Time.t;
  rto_max : Time.t;
  granularity : Time.t;
  mutable srtt : Time.t;
  mutable rttvar : Time.t;
  mutable has_sample : bool;
  mutable backoff : int;  (* power-of-two multiplier exponent *)
  mutable min_rtt : Time.t;
}

let default_rto_min = Time.ms 200
let default_rto_max = Time.sec 60.
let default_granularity = Time.us 200

let create ?(rto_min = default_rto_min) ?(rto_max = default_rto_max)
    ?(granularity = default_granularity) () =
  {
    rto_min;
    rto_max;
    granularity;
    srtt = Time.ms 200;
    rttvar = Time.ms 100;
    has_sample = false;
    backoff = 0;
    min_rtt = Time.infinity;
  }

let sample t rtt =
  if Time.compare rtt Time.zero < 0 then
    invalid_arg "Rtt_estimator.sample: negative";
  if Time.compare rtt t.min_rtt < 0 then t.min_rtt <- rtt;
  if not t.has_sample then begin
    t.srtt <- rtt;
    t.rttvar <- Time.div rtt 2;
    t.has_sample <- true
  end
  else begin
    (* RFC 6298: alpha = 1/8, beta = 1/4 *)
    let err = abs (Time.sub t.srtt rtt) in
    t.rttvar <- Time.div (Time.add (Time.mul t.rttvar 3) err) 4;
    t.srtt <- Time.div (Time.add (Time.mul t.srtt 7) rtt) 8
  end

let has_sample t = t.has_sample
let srtt t = t.srtt
let rttvar t = t.rttvar

let rto t =
  (* RFC 6298 (2.4): RTO = SRTT + max(G, 4 * RTTVAR). Without the
     granularity term rttvar decays geometrically toward zero on a
     steady path, and with a small rto_min the RTO converges to ~srtt —
     so the delayed-ACK hold on a transfer's last odd segment fires a
     spurious timeout on a perfectly clean link. The 200 ms default
     floor masked this; WAN-scale floors (~ms) don't. *)
  let base =
    Time.add t.srtt (Time.max t.granularity (Time.mul t.rttvar 4))
  in
  let clamped = Time.max t.rto_min (Time.min t.rto_max base) in
  let backed = clamped * (1 lsl Int.min t.backoff 16) in
  Time.min t.rto_max backed

let backoff t = t.backoff <- t.backoff + 1
let reset_backoff t = t.backoff <- 0
let min_rtt t = t.min_rtt
