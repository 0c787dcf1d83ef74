(* Bounded ring-buffer flight recorder.

   Recording is O(1) and never allocates beyond the entry itself; when the
   ring is full the oldest entry is overwritten, so a long run keeps the
   most recent [capacity] events and counts what it had to discard. *)

type entry = {
  time_ns : int;
  event : Event.t;
}

type t = {
  capacity : int;
  ring : entry option array;
  mutable next : int;  (* slot the next entry lands in *)
  mutable total : int;  (* entries ever recorded *)
}

let create ~capacity =
  if capacity <= 0 then
    invalid_arg "Telemetry.Recorder.create: capacity must be positive";
  { capacity; ring = Array.make capacity None; next = 0; total = 0 }

let total t = t.total
let length t = if t.total < t.capacity then t.total else t.capacity
let dropped t = if t.total > t.capacity then t.total - t.capacity else 0

let record t ~time_ns event =
  t.ring.(t.next) <- Some { time_ns; event };
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let iter f t =
  let n = length t in
  let start = if t.total <= t.capacity then 0 else t.next in
  for i = 0 to n - 1 do
    match t.ring.((start + i) mod t.capacity) with
    | Some e -> f e
    | None -> ()
  done

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.total <- 0
