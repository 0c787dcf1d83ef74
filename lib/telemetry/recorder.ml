(* Bounded ring-buffer flight recorder.

   Recording is O(1) amortized; when the ring holds [capacity] entries
   the oldest entry is overwritten, so a long run keeps the most recent
   [capacity] events and counts what it had to discard. Until then the
   ring doubles as it fills (from 64 slots), so a short trace does not
   pay for the bound. Growth happens only before the first wrap, when the
   entries sit in slots [0, total) in order, so it is a plain copy. *)

type entry = {
  time_ns : int;
  event : Event.t;
}

type t = {
  capacity : int;
  mutable ring : entry option array;  (* grown to [capacity] slots *)
  mutable next : int;  (* slot the next entry lands in *)
  mutable total : int;  (* entries ever recorded *)
}

let create ~capacity =
  if capacity <= 0 then
    invalid_arg "Telemetry.Recorder.create: capacity must be positive";
  { capacity; ring = [||]; next = 0; total = 0 }

let total t = t.total
let length t = if t.total < t.capacity then t.total else t.capacity
let dropped t = if t.total > t.capacity then t.total - t.capacity else 0

let grow t =
  let n = Array.length t.ring in
  let ring = Array.make (Int.min t.capacity (Int.max 64 (2 * n))) None in
  Array.blit t.ring 0 ring 0 n;
  t.ring <- ring

let record t ~time_ns event =
  if t.next = Array.length t.ring then grow t;
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
