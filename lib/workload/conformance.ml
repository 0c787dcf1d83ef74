module Cc = Xmp_transport.Cc
module Time = Xmp_engine.Time
module Coupling = Xmp_mptcp.Coupling

type step =
  | Ack of int
  | Ce_ack of int
  | Fast_retransmit
  | Timeout
  | Sibling_ack of int

type episode = { ep_name : string; steps : step list }

let repeat n s = List.init n (fun _ -> s)

let interleave n a b = List.concat (List.init n (fun _ -> a @ b))

let episodes =
  [
    { ep_name = "ramp"; steps = repeat 24 (Ack 1) };
    {
      ep_name = "ca";
      steps = repeat 16 (Ack 1) @ [ Fast_retransmit ] @ repeat 32 (Ack 1);
    };
    {
      ep_name = "ecn";
      steps =
        (* the 24 clean ACKs between the CE events advance snd_una past a
           full window, so the second mark lands outside every scheme's
           once-per-window gate and exercises the congestion-avoidance
           cut (the first one hits slow start) *)
        repeat 16 (Ack 1)
        @ [ Ce_ack 1 ]
        @ repeat 24 (Ack 1)
        @ [ Ce_ack 3 ]
        @ repeat 16 (Ack 1);
    };
    {
      ep_name = "loss-train";
      steps =
        repeat 16 (Ack 1)
        @ [ Fast_retransmit ]
        @ repeat 8 (Ack 1)
        @ [ Fast_retransmit; Fast_retransmit ]
        @ repeat 16 (Ack 1);
    };
    {
      ep_name = "timeout";
      steps = repeat 16 (Ack 1) @ [ Timeout ] @ repeat 24 (Ack 1);
    };
    {
      ep_name = "sibling";
      steps =
        repeat 8 (Ack 1)
        @ interleave 12 [ Sibling_ack 2 ] [ Ack 1 ]
        @ [ Fast_retransmit ]
        @ interleave 12 [ Sibling_ack 1 ] [ Ack 1 ];
    };
  ]

let schemes =
  [
    Scheme.dctcp;
    Scheme.reno;
    Scheme.lia 2;
    Scheme.olia 2;
    Scheme.xmp 2;
    Scheme.balia 2;
    Scheme.veno 2;
    Scheme.amp 2;
  ]

type sub = { cc : Cc.t; view : Cc.view }

type rig = { scheme : Scheme.t; subs : sub array; now : Time.t ref }

(* Distinct per-subflow smoothed RTTs (subflow 0 is the fastest) over a
   common 200 µs base, so delay- and rate-sensitive rules (Veno's
   backlog, Balia's α, TraSh's δ) see asymmetric paths. *)
let srtt_of_index i = Time.us (300 + (150 * i))

let base_rtt = Time.us 200

(* The WAN-heterogeneity rig: subflow 0 stays on an intra-DC path
   (100 µs) while every sibling crosses a long-haul trunk (20 ms) — a
   200:1 ratio that stresses the rate terms (LIA/OLIA divide by srtt²,
   Balia by srtt) and Veno's backlog estimate far outside the regime
   the couplings were tuned in. min_rtt sits at 4/5 of srtt so
   queue-delay-sensitive rules see a plausible standing backlog on both
   path classes. *)
let asym_srtt_of_index i = if i = 0 then Time.us 100 else Time.ms 20

let asym_min_rtt_of_index i = if i = 0 then Time.us 80 else Time.ms 16

let asym_episode =
  {
    ep_name = "rtt-asym";
    steps =
      repeat 8 (Ack 1)
      @ interleave 12 [ Sibling_ack 1 ] [ Ack 2 ]
      @ [ Ce_ack 2 ]
      @ interleave 8 [ Sibling_ack 2 ] [ Ack 1 ]
      @ [ Fast_retransmit ]
      @ interleave 12 [ Sibling_ack 1 ] [ Ack 1 ]
      @ [ Timeout ]
      @ repeat 16 (Ack 1);
  }

let make_rig ?(srtt_of = srtt_of_index) ?(min_rtt_of = fun _ -> base_rtt)
    scheme =
  let coupling = Scheme.coupling scheme Scheme.default_overrides in
  let flow = coupling.Coupling.fresh () in
  let now = ref (Time.us 0) in
  let clock () = !now in
  let make_sub i =
    let view =
      Cc.view ~srtt:(srtt_of i) ~min_rtt:(min_rtt_of i) ~now:clock ()
    in
    { cc = Coupling.attach flow view; view }
  in
  { scheme; subs = Array.init (Scheme.n_subflows scheme) make_sub; now }

let make_asym_rig scheme =
  make_rig ~srtt_of:asym_srtt_of_index ~min_rtt_of:asym_min_rtt_of_index
    scheme

let cwnd rig i = Cc.cwnd rig.subs.(i).cc

let in_slow_start rig i = Cc.in_slow_start rig.subs.(i).cc

let total_cwnd rig =
  Array.fold_left (fun acc s -> acc +. Cc.cwnd s.cc) 0. rig.subs

(* Deliver a cumulative ACK for [k] segments on subflow [i], CE-marking
   every one of them when [ce]. A full window is put "in flight" first so
   round detection (BOS) and once-per-window gates (classic ECN, DCTCP)
   see the sequence space advance the way a live connection's would. *)
let deliver rig i ~ce k =
  let sub = rig.subs.(i) in
  let v = sub.view in
  let w = Int.max 1 (int_of_float (Cc.cwnd sub.cc)) in
  if v.Cc.snd_nxt < v.Cc.snd_una + w then v.Cc.snd_nxt <- v.Cc.snd_una + w;
  v.Cc.snd_una <- v.Cc.snd_una + k;
  if v.Cc.snd_nxt < v.Cc.snd_una then v.Cc.snd_nxt <- v.Cc.snd_una;
  let ce_count = if ce then k else 0 in
  if ce_count > 0 then Cc.on_ecn sub.cc ~count:ce_count;
  Cc.on_ack sub.cc ~ack:v.Cc.snd_una ~newly_acked:k ~ce_count

let apply rig step =
  rig.now := !(rig.now) + Time.us 150;
  match step with
  | Ack k -> deliver rig 0 ~ce:false k
  | Ce_ack k -> deliver rig 0 ~ce:true k
  | Fast_retransmit -> Cc.on_fast_retransmit rig.subs.(0).cc
  | Timeout -> Cc.on_timeout rig.subs.(0).cc
  | Sibling_ack k ->
    if Array.length rig.subs > 1 then deliver rig 1 ~ce:false k

let step_name = function
  | Ack k -> Printf.sprintf "ack:%d" k
  | Ce_ack k -> Printf.sprintf "ce:%d" k
  | Fast_retransmit -> "retx"
  | Timeout -> "rto"
  | Sibling_ack k -> Printf.sprintf "sib:%d" k

type sample = {
  step_idx : int;
  step : step;
  cwnd0 : float;
  total : float;
  slow_start0 : bool;
}

(* The rig persists across calls, so episodes concatenate: running
   "timeout" after "ecn" continues from the post-ecn state, which is
   what the order-randomized safety fuzz leans on. *)
let run_episode rig episode =
  List.mapi
    (fun step_idx step ->
      apply rig step;
      {
        step_idx;
        step;
        cwnd0 = cwnd rig 0;
        total = total_cwnd rig;
        slow_start0 = in_slow_start rig 0;
      })
    episode.steps

(* One trace line per step: subflow-0 cwnd and the aggregate window,
   %.6g so the text is stable across runs and platforms. *)
let render_episode make scheme episode =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "# %s %s\n" (Scheme.name scheme) episode.ep_name);
  let rig = make scheme in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%3d %-6s %.6g %.6g\n" s.step_idx (step_name s.step)
           s.cwnd0 s.total))
    (run_episode rig episode);
  Buffer.contents buf

let render_all () =
  String.concat "\n"
    (List.concat_map
       (fun scheme ->
         List.map (render_episode (fun s -> make_rig s) scheme) episodes
         @ [ render_episode make_asym_rig scheme asym_episode ])
       schemes)
