module Time = Xmp_engine.Time

(* Open-loop Poisson arrivals, one independent stream per host.

   Each host owns a private [Random.State] seeded from (seed, host), and
   every random decision about one of its flows — interarrival gap, then
   whatever the caller draws from [rng] inside the callback (size,
   destination, ...) — comes from that stream in arrival order. The
   schedule is therefore a pure function of (seed, rate, hosts),
   independent of how many shards, domains or jobs execute the run.

   The hosts sit in a binary min-heap keyed by (next arrival, host), so
   a pop is one sift-down and a call that pops nothing reads the root:
   O(log hosts) per arrival instead of a scan over every host. *)

type t = {
  rngs : Random.State.t array;  (* per host *)
  next : Time.t array;  (* per host; Time.infinity once stopped *)
  heap : int array;  (* every host, heap-ordered by (next, host) *)
  rate : float;
}

(* Exponential gap in whole nanoseconds, at least 1 so each host's
   arrival times strictly increase (ties across hosts are fine — they
   are broken by host index). 1 - u maps [0,1) to (0,1]. *)
let gap_ns rng rate =
  let u = 1. -. Random.State.float rng 1. in
  Stdlib.max 1 (int_of_float (Float.round (-.Float.log u /. rate *. 1e9)))

let before t a b =
  let c = Time.compare t.next.(a) t.next.(b) in
  c < 0 || (c = 0 && a < b)

let rec sift_down t i =
  let n = Array.length t.heap in
  let l = (2 * i) + 1 in
  if l < n then begin
    let r = l + 1 in
    let c = if r < n && before t t.heap.(r) t.heap.(l) then r else l in
    if before t t.heap.(c) t.heap.(i) then begin
      let h = t.heap.(i) in
      t.heap.(i) <- t.heap.(c);
      t.heap.(c) <- h;
      sift_down t c
    end
  end

let create ~seed ~hosts ~rate =
  if hosts < 1 then invalid_arg "Arrivals.create: hosts";
  if rate <= 0. then invalid_arg "Arrivals.create: rate must be positive";
  let rngs =
    Xmp_engine.Tables.init hosts (fun host ->
        Random.State.make [| seed; host; 0x4a5 |])
  in
  let next = Array.map (fun rng -> Time.ns (gap_ns rng rate)) rngs in
  let t = { rngs; next; heap = Array.init hosts Fun.id; rate } in
  for i = (hosts / 2) - 1 downto 0 do
    sift_down t i
  done;
  t

(* Pop everything due at or before [target], in (time, host) order; the
   root left is the earliest remaining arrival. A host's key only grows
   when it is popped, so the root sifts down in place. An infinite root
   is a stopped generator, whatever the target. *)
let until t ~target ~f =
  let rec loop () =
    let host = t.heap.(0) in
    let at = t.next.(host) in
    if Time.is_infinite at || Time.compare at target > 0 then at
    else begin
      let rng = t.rngs.(host) in
      t.next.(host) <- Time.add at (Time.ns (gap_ns rng t.rate));
      sift_down t 0;
      f ~host ~at ~rng;
      loop ()
    end
  in
  loop ()

(* Every key becomes infinite at once, so the heap order no longer
   matters: the root reads infinity and nothing is popped again. *)
let stop t = Array.fill t.next 0 (Array.length t.next) Time.infinity
