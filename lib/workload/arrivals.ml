module Time = Xmp_engine.Time

(* Open-loop Poisson arrivals, one independent stream per host.

   Each host owns a private [Random.State] seeded from (seed, host), and
   every random decision about one of its flows — interarrival gap, then
   whatever the caller draws from [rng] inside the callback (size,
   destination, ...) — comes from that stream in arrival order. The
   schedule is therefore a pure function of (seed, rate, hosts),
   independent of how many shards, domains or jobs execute the run. *)

type stream = {
  rng : Random.State.t;
  mutable next : Time.t;  (* Time.infinity once stopped *)
}

type t = { streams : stream array; rate : float }

(* Exponential gap in whole nanoseconds, at least 1 so each host's
   arrival times strictly increase (ties across hosts are fine — the
   caller breaks them by host index). 1 - u maps [0,1) to (0,1]. *)
let gap_ns rng rate =
  let u = 1. -. Random.State.float rng 1. in
  Stdlib.max 1 (int_of_float (Float.round (-.Float.log u /. rate *. 1e9)))

let create ~seed ~hosts ~rate =
  if hosts < 1 then invalid_arg "Arrivals.create: hosts";
  if rate <= 0. then invalid_arg "Arrivals.create: rate must be positive";
  let streams =
    Array.init hosts (fun host ->
        let rng = Random.State.make [| seed; host; 0x4a5 |] in
        { rng; next = Time.ns (gap_ns rng rate) })
  in
  { streams; rate }

(* Pop everything due at or before [target], in (time, host) order: a
   linear min-scan per pop, plus the scan that finds nothing due, whose
   minimum is the earliest remaining arrival. That is O(hosts) per pop
   and per call, once per shard epoch, and not cheap: at the 128 hosts
   of a k=8 fabric a call that pops one arrival takes about 1.5 us on a
   2-vCPU x86 VM. *)
let until t ~target ~f =
  let n = Array.length t.streams in
  let continue = ref true and next = ref Time.infinity in
  while !continue do
    let best = ref (-1) and best_t = ref Time.infinity in
    for host = 0 to n - 1 do
      if Time.compare t.streams.(host).next !best_t < 0 then begin
        best := host;
        best_t := t.streams.(host).next
      end
    done;
    if !best < 0 || Time.compare !best_t target > 0 then begin
      continue := false;
      next := !best_t
    end
    else begin
      let s = t.streams.(!best) in
      let at = s.next in
      s.next <- Time.add at (Time.ns (gap_ns s.rng t.rate));
      f ~host:!best ~at ~rng:s.rng
    end
  done;
  !next

let stop t =
  Array.iter (fun s -> s.next <- Time.infinity) t.streams
