module Invariant = Xmp_check.Invariant
module Tel = Xmp_telemetry

type policy = Droptail | Threshold_mark of int

(* telemetry bundle, present exactly when the owning sim's sink is active;
   handles are resolved once in [set_telemetry] so the per-packet cost of a
   disabled sink is the single [t.telem] branch *)
type telem = {
  sink : Tel.Sink.t;
  now : unit -> int;  (* simulated nanoseconds, supplied by the link *)
  queue : string;
  c_enqueued : Tel.Metric.Counter.t;
  c_dropped : Tel.Metric.Counter.t;
  c_marked : Tel.Metric.Counter.t;
  h_depth : Tel.Metric.Histogram.t;
}

type t = {
  policy : policy;
  capacity : int;
  mutable ring : Packet.t array;  (* circular FIFO, grown to [capacity] *)
  mutable head : int;  (* index of the next packet to dequeue *)
  mutable len : int;
  mutable enqueued : int;
  mutable dropped : int;
  mutable marked : int;
  mutable max_len : int;
  mutable telem : telem option;
  mutable blackout : bool;
}

let create ~policy ~capacity_pkts =
  if capacity_pkts <= 0 then invalid_arg "Queue_disc.create: capacity";
  {
    policy;
    capacity = capacity_pkts;
    ring = [||];
    head = 0;
    len = 0;
    enqueued = 0;
    dropped = 0;
    marked = 0;
    max_len = 0;
    telem = None;
    blackout = false;
  }

let set_telemetry t ~sink ~now ~queue =
  if Tel.Sink.active sink then begin
    let reg = Tel.Sink.registry sink in
    let labels = Tel.Label.v [ ("queue", queue) ] in
    t.telem <-
      Some
        {
          sink;
          now;
          queue;
          c_enqueued =
            Tel.Registry.counter reg ~labels ~subsystem:"net" ~name:"enqueued"
              ();
          c_dropped =
            Tel.Registry.counter reg ~labels ~subsystem:"net" ~name:"dropped"
              ();
          c_marked =
            Tel.Registry.counter reg ~labels ~subsystem:"net" ~name:"marked" ();
          h_depth =
            Tel.Registry.histogram reg ~labels ~subsystem:"net"
              ~name:"queue_depth" ();
        }
  end
  else t.telem <- None

let policy t = t.policy
let capacity t = t.capacity
let length t = t.len

let mark t (p : Packet.t) =
  if Packet.ect p && not (Packet.ce p) then begin
    Packet.set_ce p;
    t.marked <- t.marked + 1;
    (match t.telem with
    | Some tl ->
      Tel.Metric.Counter.inc tl.c_marked;
      Tel.Sink.event tl.sink ~time_ns:(tl.now ())
        (Tel.Event.Ce_mark
           { queue = tl.queue; flow = Packet.flow p;
             subflow = Packet.subflow p; depth = t.len })
    | None -> ())
  end

(* The ring starts empty and doubles when full, from 8 slots up to
   [capacity]: a queue allocates for the deepest backlog it has held, not
   for its bound (a WAN trunk's BDP-sized buffer, or [queue=] set far
   beyond any backlog, costs nothing until packets arrive). Growth
   unwraps the packets in FIFO order, so the order they leave in is the
   same as on a ring allocated whole. *)
let grow t =
  t.ring <-
    Packet.grow_ring t.ring ~head:t.head ~len:t.len
      (Int.min t.capacity (Int.max 8 (2 * t.len)));
  t.head <- 0

let append t (p : Packet.t) =
  if t.len = Array.length t.ring then grow t;
  let cap = Array.length t.ring in
  let tail = t.head + t.len in
  let tail = if tail >= cap then tail - cap else tail in
  t.ring.(tail) <- p;
  t.len <- t.len + 1;
  t.enqueued <- t.enqueued + 1;
  if t.len > t.max_len then t.max_len <- t.len;
  (match t.telem with
  | Some tl ->
    Tel.Metric.Counter.inc tl.c_enqueued;
    Tel.Metric.Histogram.add tl.h_depth (float_of_int t.len);
    Tel.Sink.event tl.sink ~time_ns:(tl.now ())
      (Tel.Event.Enqueue
         { queue = tl.queue; flow = Packet.flow p;
           subflow = Packet.subflow p; depth = t.len })
  | None -> ());
  if not (Invariant.holds (t.len >= 0 && t.len <= t.capacity)) then
    Invariant.fail ~name:"queue.occupancy-bounds" (fun () ->
        Printf.sprintf "occupancy %d outside [0, %d]" t.len t.capacity)

(* A dropped packet's life ends here: account it, then return the record
   to the pool. *)
let drop t (p : Packet.t) =
  t.dropped <- t.dropped + 1;
  (match t.telem with
  | Some tl ->
    Tel.Metric.Counter.inc tl.c_dropped;
    Tel.Sink.event tl.sink ~time_ns:(tl.now ())
      (Tel.Event.Drop
         { queue = tl.queue; flow = Packet.flow p;
           subflow = Packet.subflow p; depth = t.len })
  | None -> ());
  Packet.release p;
  false

let enqueue t (p : Packet.t) =
  (* a blacked-out queue refuses everything; [drop] keeps the normal
     accounting so the loss is visible in counters and Drop events *)
  if t.blackout then drop t p
  else if t.len >= t.capacity then drop t p
  else begin
    match t.policy with
    | Droptail ->
      append t p;
      true
    | Threshold_mark k ->
      (* PAPER.md §BOS (Equation 1): the marking decision compares the
         *instantaneous* queue length against K as seen by the arriving
         packet, i.e. the occupancy *before* this packet is enqueued —
         the arrival does not count toward its own decision. [pre] and
         [ce_eligible] are captured before [mark]/[append] mutate
         anything so the invariant below checks the decision against
         independent state (the marked counter), in both directions:
         a mark only ever happens above K, and above K every
         CE-markable packet is marked. *)
      let pre = t.len in
      let ce_eligible = Packet.ect p && not (Packet.ce p) in
      let marked_before = t.marked in
      if pre > k then mark t p;
      append t p;
      if
        not
          (Invariant.holds
             (if t.marked > marked_before then pre > k
              else not (pre > k && ce_eligible)))
      then
        Invariant.fail ~name:"queue.mark-above-threshold" (fun () ->
            Printf.sprintf
              "ECN decision at pre-enqueue occupancy %d disagrees with K=%d \
               (marked %b, eligible %b)"
              pre k
              (t.marked > marked_before)
              ce_eligible);
      true
  end

(* The link's per-hop path: it tests [length] and takes, so no [Some]
   is allocated per transmitted packet. *)
let take t =
  if t.len = 0 then invalid_arg "Queue_disc.take: empty queue";
  t.len <- t.len - 1;
  if not (Invariant.holds (t.len >= 0)) then
    Invariant.fail ~name:"queue.occupancy-bounds" (fun () ->
        Printf.sprintf "occupancy %d went negative" t.len);
  let p = t.ring.(t.head) in
  t.head <- (if t.head + 1 >= Array.length t.ring then 0 else t.head + 1);
  (match t.telem with
  | Some tl ->
    Tel.Sink.event tl.sink ~time_ns:(tl.now ())
      (Tel.Event.Dequeue
         { queue = tl.queue; flow = Packet.flow p;
           subflow = Packet.subflow p; depth = t.len })
  | None -> ());
  p

let dequeue t = if t.len = 0 then None else Some (take t)

let clear t =
  let n = t.len and cap = Array.length t.ring in
  for i = 0 to n - 1 do
    let slot = t.head + i in
    let slot = if slot >= cap then slot - cap else slot in
    Packet.release t.ring.(slot)
  done;
  t.head <- 0;
  t.len <- 0;
  t.dropped <- t.dropped + n;
  n

let set_blackout t b = t.blackout <- b

let enqueued t = t.enqueued
let dropped t = t.dropped
let marked t = t.marked
let max_length_seen t = t.max_len
