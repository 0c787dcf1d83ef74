type event = {
  mutable run : unit -> unit;
      (* [dead] once the event fired or was cancelled: an event is live
         exactly while [run] is not [dead], and a dead one keeps no
         closure reachable *)
  pooled : bool;
      (* anonymous [at]/[after] events are recycled through the sim's
         free list right after they fire — their handles never escape, so
         nothing can cancel or inspect a recycled record. Timer events
         ([timer_at]/[timer_after]) hand their record out and are never
         pooled: a recycled timer handle would let a stale [cancel] kill
         whatever event the record was reused for. *)
  heap : event Event_queue.t;
      (* owning heap, so [cancel] can report the dead entry for
         lazy-deletion compaction without widening its signature *)
}

type timer = event

let dead () = ()
let live ev = not (ev.run == dead)

type t = {
  mutable now : Time.t;
  heap : event Event_queue.t;
  mutable free_events : event array;  (* free list of pooled records *)
  mutable free_top : int;
  mutable next_seq : int;
  mutable lanes : lane array;  (* indexed by lane code; [n_lanes] in use *)
  mutable n_lanes : int;
  mutable handlers : (unit -> unit) array;  (* [n_handlers] in use *)
  mutable n_handlers : int;
  mutable backlog : int;  (* lane entries queued behind their lane's head *)
  mutable executed : int;
  mutable flushed : int;
      (* portion of [executed] already added to the process-wide counter;
         flushed at the end of every [run] so the hot loop never touches
         the atomic *)
  mutable cancelled_skipped : int;
  mutable heap_peak : int;
  mutable closed : bool;
  random : Random.State.t;
  telemetry : Xmp_telemetry.Sink.t;
  clock : unit -> Time.t;  (* reads [now]; one closure per sim *)
}

(* A lane is a FIFO ring of entries whose keys increase in push order:
   (time, seq, handler) int triples on a shared lane, (time, seq) pairs
   on a private one, whose handler is fixed at creation. Only the head's
   key sits in the heap, as the coded entry [code]; the heap holds no
   record for any lane event. *)
and lane = {
  sim : t;
  code : int;
  handler : int;  (* a private lane's handler; [shared] on a shared lane *)
  delay : Time.t;  (* [lane_after]'s offset from now; 0 on a private lane *)
  mutable ring : int array;  (* [||] until the first push *)
  mutable head : int;  (* index of the oldest entry's first int *)
  mutable len : int;  (* entries queued, the head included *)
  mutable last : Time.t;  (* time of the newest entry *)
}

type handler = int

module Invariant = Xmp_check.Invariant

type config = {
  seed : int;
  telemetry : Xmp_telemetry.Sink.t;
}

type stats = {
  executed : int;
  cancelled_skipped : int;
  heap_peak : int;
  rebuilds : int;
}

let default_config = { seed = 42; telemetry = Xmp_telemetry.Sink.null }

(* process-wide tally across every simulator instance; the scenario runner
   reads deltas of this to report events-per-scenario from its workers.
   Atomic so the count stays exact when sims run on several Domains. *)
let total = Atomic.make 0

let total_events_executed () = Atomic.get total

(* process-wide heap high-water mark, for harnesses (the perf bench)
   that measure scenarios which construct their sims internally *)
let global_peak = Atomic.make 0

let global_heap_peak () = Atomic.get global_peak
let reset_global_heap_peak () = Atomic.set global_peak 0

(* lock-free monotone max: retry only when another domain raced the slot *)
let rec raise_global_peak len =
  let cur = Atomic.get global_peak in
  if len > cur && not (Atomic.compare_and_set global_peak cur len) then
    raise_global_peak len

(* Handler 0 of every sim: what {!no_handler} fires. *)
let unregistered () = failwith "Sim: lane event with no handler registered"

let no_handler = 0

(* Also every sim's heap dummy and the fill of its free list: one record
   made at start-up, so no table grows with a fill that a fresh run just
   allocated. *)
let no_timer =
  (* xmplint: allow mutable-global — dead from creation and never
     enqueued, and [cancel] writes only a live event: nothing writes it *)
  { run = dead; pooled = false; heap = Event_queue.create () }

let create ?(config = default_config) () =
  let heap = Event_queue.create ~live () in
  Event_queue.set_dummy heap no_timer;
  let rec t =
    {
      now = Time.zero;
      heap;
      free_events = [||];
      free_top = 0;
      next_seq = 0;
      lanes = [||];
      n_lanes = 0;
      handlers = [| unregistered |];
      n_handlers = 1;
      backlog = 0;
      executed = 0;
      flushed = 0;
      cancelled_skipped = 0;
      heap_peak = 0;
      closed = false;
      random = Random.State.make [| config.seed; 0x584d50 (* "XMP" *) |];
      telemetry = config.telemetry;
      clock = (fun () -> t.now);
    }
  in
  t

let now t = t.now
let clock t = t.clock
let next_event_time (t : t) = Event_queue.top_time t.heap
let rng t = t.random
let telemetry (t : t) = t.telemetry
let events_executed (t : t) = t.executed
let pending t = Event_queue.length t.heap + t.backlog

let stats (t : t) =
  {
    executed = t.executed;
    cancelled_skipped = t.cancelled_skipped;
    heap_peak = t.heap_peak;
    rebuilds = Event_queue.rebuilds t.heap;
  }

let refuse_closed what = invalid_arg (what ^ ": the sim is closed")

let check_time t time =
  if t.closed then refuse_closed "Sim: scheduling";
  if Time.compare time t.now < 0 then
    invalid_arg
      (Format.asprintf "Sim: scheduling at %a before now %a" Time.pp time
         Time.pp t.now)

let note_heap_len t =
  let len = Event_queue.length t.heap in
  if len > t.heap_peak then begin
    t.heap_peak <- len;
    (* the global mark only moves when the local one does, so the atomic
       stays off the per-event path *)
    raise_global_peak len
  end

let enqueue t time ev =
  Event_queue.add t.heap ~time ~seq:t.next_seq ev;
  t.next_seq <- t.next_seq + 1;
  note_heap_len t

let acquire_event t f =
  if t.free_top > 0 then begin
    let i = t.free_top - 1 in
    t.free_top <- i;
    let ev = t.free_events.(i) in
    ev.run <- f;
    ev
  end
  else { run = f; pooled = true; heap = t.heap }

(* At most this many released records wait for reuse; the rest are
   left to the GC. A burst of pending closure events (an open-loop
   barrier's start events) then keeps no records and no free-list cells
   for the rest of the run, and the list, never longer than 256 cells,
   is always made in the minor heap. *)
let max_free = 256

(* [ev] fired, so its closure is already gone: a parked free-list record
   keeps no closure graph (packets, connections) reachable *)
let release_event t ev =
  let top = t.free_top in
  if top < max_free then begin
    if top = Array.length t.free_events then begin
      let arr = Array.make (Int.max 64 (2 * top)) no_timer in
      Array.blit t.free_events 0 arr 0 top;
      t.free_events <- arr
    end;
    t.free_events.(top) <- ev;
    t.free_top <- top + 1
  end

let at t time f =
  check_time t time;
  enqueue t time (acquire_event t f)

let after t d f =
  let time = Time.add t.now d in
  check_time t time;
  enqueue t time (acquire_event t f)

let timer_at t time f =
  check_time t time;
  let ev = { run = f; pooled = false; heap = t.heap } in
  enqueue t time ev;
  ev

let timer_after t d f = timer_at t (Time.add t.now d) f

(* The dead entry stays in the heap until a compaction or its pop; its
   closure goes now, so a cancelled timer keeps nothing of its owner
   (a finished connection) reachable meanwhile. *)
let cancel (ev : timer) =
  if live ev then begin
    ev.run <- dead;
    Event_queue.note_dead ev.heap
  end

let timer_active = live

(* ---- FIFO lanes -------------------------------------------------------- *)

let handler t f =
  if t.closed then refuse_closed "Sim.handler";
  if t.n_handlers = Array.length t.handlers then begin
    let grown = Array.make (2 * t.n_handlers) unregistered in
    Array.blit t.handlers 0 grown 0 t.n_handlers;
    (* scrubbed as it is dropped: see [close] *)
    Array.fill t.handlers 0 t.n_handlers unregistered;
    t.handlers <- grown
  end;
  t.handlers.(t.n_handlers) <- f;
  t.n_handlers <- t.n_handlers + 1;
  t.n_handlers - 1

(* The [handler] of a shared lane, whose entries carry their own. *)
let shared = -1

(* Ints per entry. *)
let[@inline] stride ln = if ln.handler = shared then 3 else 2

let new_lane t ~handler delay =
  let ln =
    {
      sim = t;
      code = t.n_lanes;
      handler;
      delay;
      ring = [||];
      head = 0;
      len = 0;
      last = Time.zero;
    }
  in
  (* the cells past [n_lanes] are never read *)
  if t.n_lanes = Array.length t.lanes then
    t.lanes <- Tables.grow t.lanes ~first:8 ln;
  t.lanes.(t.n_lanes) <- ln;
  t.n_lanes <- t.n_lanes + 1;
  ln

(* A sim has a handful of distinct delays (five on a k=4 fat tree) and
   one private lane per inbound portal, so a linear scan at set-up is
   cheaper than hashing. *)
let lane t delay =
  if Time.compare delay Time.zero < 0 then
    invalid_arg
      (Format.asprintf "Sim.lane: negative delay %a" Time.pp delay);
  let rec find i =
    if i = t.n_lanes then new_lane t ~handler:shared delay
    else
      let ln = t.lanes.(i) in
      if ln.delay = delay && ln.handler = shared then ln else find (i + 1)
  in
  find 0

let private_lane t (h : handler) =
  if t.closed then refuse_closed "Sim.private_lane";
  if h < 0 || h >= t.n_handlers then invalid_arg "Sim.private_lane: handler";
  new_lane t ~handler:h Time.zero

(* Doubles a full ring, unwrapping it. A sim has a handful of shared
   lanes, which carry every link's packets, and a private lane per
   inbound portal, most of which hold a few mails at a time: rings
   start at 16 triples or 8 pairs. *)
let grow_ring ln =
  let cap = Array.length ln.ring in
  let first = if stride ln = 3 then 48 else 16 in
  let ring = Array.make (Int.max first (2 * cap)) 0 in
  Array.blit ln.ring ln.head ring 0 (cap - ln.head);
  Array.blit ln.ring 0 ring (cap - ln.head) ln.head;
  ln.ring <- ring;
  ln.head <- 0

(* The seq is drawn exactly where [at] would draw it, so lane events
   interleave with every other event in the same (time, seq) order as if
   each had been scheduled with [at]. [h] is stored only on a shared
   lane. *)
let lane_push ln time (h : handler) =
  let t = ln.sim in
  if Time.compare time ln.last < 0 then
    invalid_arg
      (Format.asprintf "Sim.lane_at: %a breaks lane order (last push %a)"
         Time.pp time Time.pp ln.last);
  if h < 0 || h >= t.n_handlers then
    if t.closed then refuse_closed "Sim: scheduling"
    else invalid_arg "Sim.lane_after: handler";
  ln.last <- time;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if ln.len = 0 then begin
    Event_queue.add_coded t.heap ~time ~seq ln.code;
    note_heap_len t
  end
  else t.backlog <- t.backlog + 1;
  let stride = stride ln in
  if stride * ln.len = Array.length ln.ring then grow_ring ln;
  let ring = ln.ring in
  let tail = ln.head + (stride * ln.len) in
  let cap = Array.length ring in
  let tail = if tail >= cap then tail - cap else tail in
  ring.(tail) <- time;
  ring.(tail + 1) <- seq;
  if stride = 3 then ring.(tail + 2) <- h;
  ln.len <- ln.len + 1

let lane_after ln h =
  if ln.handler <> shared then invalid_arg "Sim.lane_after: private lane";
  lane_push ln (Time.add ln.sim.now ln.delay) h

let lane_at ln time =
  if ln.handler = shared then invalid_arg "Sim.lane_at: shared lane";
  check_time ln.sim time;
  lane_push ln time ln.handler

(* Clock and accounting for a live event about to run at [time]. *)
let begin_event (t : t) time =
  if not (Invariant.holds (Time.compare time t.now >= 0)) then
    Invariant.fail ~name:"sim.dispatch-monotone" (fun () ->
        Format.asprintf "event at %a dispatched after clock reached %a"
          Time.pp time Time.pp t.now);
  t.now <- time;
  t.executed <- t.executed + 1

(* The fired head leaves its lane; the lane's next entry, if any, takes
   over the heap root with one sift-down. The heap is settled before the
   handler runs, so whatever it schedules (this lane included) sees a
   consistent queue. *)
let fire_lane t time ln =
  let ring = ln.ring in
  let i = ln.head in
  let stride = stride ln in
  let h = if stride = 3 then ring.(i + 2) else ln.handler in
  let next = if i + stride = Array.length ring then 0 else i + stride in
  ln.head <- next;
  ln.len <- ln.len - 1;
  if ln.len = 0 then Event_queue.pop_coded t.heap
  else begin
    t.backlog <- t.backlog - 1;
    Event_queue.rekey_top t.heap ~time:ring.(next) ~seq:ring.(next + 1)
  end;
  begin_event t time;
  t.handlers.(h) ()

(* One turn of the [run] loop; the caller has already established the
   heap is non-empty and read the top's time. *)
let dispatch_top t time =
  let code = Event_queue.top_code t.heap in
  if code >= 0 then fire_lane t time t.lanes.(code)
  else
    let ev = Event_queue.pop_payload t.heap in
    if live ev then begin
      begin_event t time;
      let f = ev.run in
      ev.run <- dead;
      (* recycle before running: [f] is saved, and anything [f] schedules
         may legitimately reuse this record *)
      if ev.pooled then release_event t ev;
      f ()
    end
    else begin
      (* cancelled (or compaction dummy) entries still advance the clock
         — exactly what dispatching them used to do — but are not
         counted as executed work *)
      if Time.compare time t.now > 0 then t.now <- time;
      t.cancelled_skipped <- t.cancelled_skipped + 1
    end

let flush_total (t : t) =
  if t.executed > t.flushed then begin
    ignore (Atomic.fetch_and_add total (t.executed - t.flushed));
    t.flushed <- t.executed
  end

let run ?(until = Time.infinity) t =
  if t.closed then refuse_closed "Sim.run";
  if Time.compare until t.now < 0 then
    invalid_arg
      (Format.asprintf "Sim.run: until %a is before now %a" Time.pp until
         Time.pp t.now);
  let continue = ref true in
  while !continue do
    if Event_queue.is_empty t.heap then continue := false
    else begin
      let time = Event_queue.top_time t.heap in
      if Time.compare time until > 0 then begin
        t.now <- until;
        continue := false
      end
      else dispatch_top t time
    end
  done;
  flush_total t

(* Every pending event dies (a timer its owner still holds reads
   inactive), and every table that can point into a finished run is
   overwritten in place with a placeholder made at start-up. Dropping a
   table is not enough: one that lives in the major heap keeps the cells
   a young value was written into remembered, and the next minor
   collection would promote whatever they still point to. Clearing
   [n_handlers] also makes every lane push fail its handler check. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    Event_queue.clear ~release:(fun ev -> ev.run <- dead) t.heap;
    Array.fill t.free_events 0 (Array.length t.free_events) no_timer;
    t.free_events <- [||];
    t.free_top <- 0;
    for i = 0 to t.n_lanes - 1 do
      let ln = t.lanes.(i) in
      ln.ring <- [||];
      ln.head <- 0;
      ln.len <- 0
    done;
    t.backlog <- 0;
    Array.fill t.handlers 0 (Array.length t.handlers) unregistered;
    t.n_handlers <- 0
  end
