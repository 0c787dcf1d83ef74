(* The heap is stored as parallel int arrays plus a slot table rather
   than an array of (time, seq, payload) records: [times], [seqs] and
   [slots] are unboxed int arrays ordered by heap position, while the
   payload pointers sit still in the slot-indexed [payloads] table. Sift
   operations therefore move only immediates — no write barrier runs
   while the heap reorders itself, where swap-chaining boxed entries
   would call the barrier once per level per sift. A payload pointer is
   written exactly twice per event: once on [add] (into its slot) and
   once on pop (the slot is scrubbed back to the dummy).

   A coded entry stores [-1 - code] in [slots] and holds no payload slot
   at all, so it writes no pointer. Heap positions and payload slots
   therefore grow independently.

   The payload table grows through [Tables.grow], which forces no minor
   collection (see tables.mli); the new half is then scrubbed to the
   dummy, and so is the old table as it is dropped. *)
type 'a t = {
  mutable times : int array;  (* heap-ordered *)
  mutable seqs : int array;  (* heap-ordered *)
  mutable slots : int array;
      (* heap-ordered: index into [payloads], or [-1 - code] *)
  mutable payloads : 'a array;  (* slot-indexed *)
  mutable free : int array;  (* free slot stack: free.(0 .. free_top-1) *)
  mutable free_top : int;
  mutable len : int;
  mutable dead : int;
      (* entries still in the heap whose payload [live] rejects; kept
         accurate by [note_dead] (+1) and [pop] (-1 on a dead top) *)
  mutable rebuilds : int;
  mutable dummy : 'a option;
      (* canonical payload used to overwrite vacated slots so popped
         payloads are not retained by the backing array; seeded by
         [set_dummy], else by the first [add] (which pins that one
         payload for the heap's lifetime — O(1), documented) *)
  live : 'a -> bool;
}

let create ?(live = fun _ -> true) () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    payloads = [||];
    free = [||];
    free_top = 0;
    len = 0;
    dead = 0;
    rebuilds = 0;
    dummy = None;
    live;
  }

let set_dummy h payload =
  match h.dummy with Some _ -> () | None -> h.dummy <- Some payload

let length h = h.len

let is_empty h = h.len = 0

let dead_count h = h.dead

let rebuilds h = h.rebuilds

let resize_heap h cap' =
  let times' = Array.make cap' 0 in
  Array.blit h.times 0 times' 0 h.len;
  h.times <- times';
  let seqs' = Array.make cap' 0 in
  Array.blit h.seqs 0 seqs' 0 h.len;
  h.seqs <- seqs';
  let slots' = Array.make cap' 0 in
  Array.blit h.slots 0 slots' 0 h.len;
  h.slots <- slots'

(* Overwrites a payload table that is about to be dropped: one in the
   major heap keeps the cells a young payload was written into
   remembered, and the next minor collection would promote what they
   still point to. *)
let scrub_all h a =
  match h.dummy with
  | Some d -> Array.fill a 0 (Array.length a) d
  | None -> ()

(* Called with an empty free stack: double the payload table and push
   the fresh slots. [fill] occupies the cells no payload holds yet. *)
let grow_slots h fill =
  let cap = Array.length h.payloads in
  let cap' = Int.max 64 (2 * cap) in
  let payloads' = Tables.grow h.payloads ~first:cap' fill in
  Array.fill payloads' cap (cap' - cap) fill;
  Array.fill h.payloads 0 cap fill;
  h.payloads <- payloads';
  h.free <- Array.make cap' 0;
  for s = cap' - 1 downto cap do
    h.free.(h.free_top) <- s;
    h.free_top <- h.free_top + 1
  done

(* Both sifts move the displaced entry as a "hole": its three ints are
   held in locals while ancestors/descendants shift one level, then
   written once at the final position — half the array traffic of
   swap-chaining, on the two loops that dominate heap cost. Indices are
   maintained in [0, len) by construction, so accesses are unchecked. *)
let sift_up h i0 =
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let time = Array.unsafe_get times i0 in
  let seq = Array.unsafe_get seqs i0 in
  let slot = Array.unsafe_get slots i0 in
  let i = ref i0 in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = Array.unsafe_get times parent in
    (* xmplint: allow poly-compare-time — int array cells, specialized *)
    if time < tp || (time = tp && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i tp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue := false
  done;
  if !i <> i0 then begin
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot
  end

let sift_down h i0 =
  let len = h.len in
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let time = Array.unsafe_get times i0 in
  let seq = Array.unsafe_get seqs i0 in
  let slot = Array.unsafe_get slots i0 in
  let i = ref i0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= len then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < len then begin
          let tl = Array.unsafe_get times l and tr = Array.unsafe_get times r in
          if
            tr < tl
            || (tr = tl && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        end
        else l
      in
      let tc = Array.unsafe_get times c in
      (* xmplint: allow poly-compare-time — int array cells, specialized *)
      if tc < time || (tc = time && Array.unsafe_get seqs c < seq) then begin
        Array.unsafe_set times !i tc;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set slots !i (Array.unsafe_get slots c);
        i := c
      end
      else continue := false
    end
  done;
  if !i <> i0 then begin
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot
  end

let push_key h ~time ~seq slot =
  if h.len = Array.length h.times then
    resize_heap h (Int.max 64 (2 * h.len));
  let i = h.len in
  h.times.(i) <- time;
  h.seqs.(i) <- seq;
  h.slots.(i) <- slot;
  h.len <- i + 1;
  sift_up h i

let add h ~time ~seq payload =
  if Option.is_none h.dummy then h.dummy <- Some payload;
  if h.free_top = 0 then grow_slots h (Option.value h.dummy ~default:payload);
  h.free_top <- h.free_top - 1;
  let s = h.free.(h.free_top) in
  h.payloads.(s) <- payload;
  push_key h ~time ~seq s

let add_coded h ~time ~seq code =
  if code < 0 then invalid_arg "Event_queue.add_coded: negative code";
  push_key h ~time ~seq (-1 - code)

let top_time h = if h.len = 0 then Time.infinity else h.times.(0)

let top_code h = if h.len = 0 then -1 else -1 - h.slots.(0)

let rekey_top h ~time ~seq =
  if h.len = 0 then invalid_arg "Event_queue.rekey_top: empty";
  let t0 = h.times.(0) in
  (* xmplint: allow poly-compare-time — int array cells, specialized *)
  if time < t0 || (time = t0 && seq <= h.seqs.(0)) then
    invalid_arg "Event_queue.rekey_top: the new key precedes the old one";
  h.times.(0) <- time;
  h.seqs.(0) <- seq;
  sift_down h 0

let scrub h s =
  match h.dummy with Some d -> h.payloads.(s) <- d | None -> ()

(* Move the last entry up into the root and restore the heap property.
   An emptied heap keeps its capacity (bursty simulations would
   otherwise re-allocate from 64 on every burst — call [clear] to
   release memory explicitly). *)
let drop_root h =
  h.len <- h.len - 1;
  if h.len > 0 then begin
    h.times.(0) <- h.times.(h.len);
    h.seqs.(0) <- h.seqs.(h.len);
    h.slots.(0) <- h.slots.(h.len);
    sift_down h 0
  end

(* Pop mechanics for a payload root: read its payload, scrub and free
   its slot (left populated it would keep the payload reachable — a
   drained heap would pin a backing array's worth of dead payloads),
   drop the root and settle the dead count. *)
let remove_top h =
  let s = h.slots.(0) in
  if s < 0 then
    invalid_arg "Event_queue.pop_payload: the earliest entry is coded";
  let top = h.payloads.(s) in
  scrub h s;
  h.free.(h.free_top) <- s;
  h.free_top <- h.free_top + 1;
  drop_root h;
  if not (h.live top) then h.dead <- h.dead - 1;
  top

let pop_payload h =
  if h.len = 0 then invalid_arg "Event_queue.pop_payload: empty"
  else remove_top h

let pop_coded h =
  if h.len = 0 || h.slots.(0) >= 0 then
    invalid_arg "Event_queue.pop_coded: the earliest entry is not coded";
  drop_root h

(* Sift out every dead entry and re-establish the heap property with
   Floyd's bottom-up heapify. Dead entries are never dispatched, so
   removing them is invisible to pop order; heapify preserves the
   (time, seq) total order of the survivors. Coded entries are always
   live. *)
let purge h =
  if h.dead > 0 then begin
    let j = ref 0 in
    for i = 0 to h.len - 1 do
      let s = h.slots.(i) in
      if s < 0 || h.live h.payloads.(s) then begin
        h.times.(!j) <- h.times.(i);
        h.seqs.(!j) <- h.seqs.(i);
        h.slots.(!j) <- s;
        incr j
      end
      else begin
        scrub h s;
        h.free.(h.free_top) <- s;
        h.free_top <- h.free_top + 1
      end
    done;
    h.len <- !j;
    h.dead <- 0;
    for i = (h.len / 2) - 1 downto 0 do
      sift_down h i
    done;
    h.rebuilds <- h.rebuilds + 1
  end

let note_dead h =
  h.dead <- h.dead + 1;
  (* Lazy-deletion compaction: rebuild once dead entries outnumber half
     the live ones, so the heap stays O(live) instead of O(total
     cancellations) under cancel-heavy workloads (per-ACK timer churn). *)
  if h.dead > (h.len - h.dead) / 2 then purge h

let clear ?(release = ignore) h =
  for i = 0 to h.len - 1 do
    let s = h.slots.(i) in
    if s >= 0 then release h.payloads.(s)
  done;
  scrub_all h h.payloads;
  h.len <- 0;
  h.dead <- 0;
  h.times <- [||];
  h.seqs <- [||];
  h.slots <- [||];
  h.payloads <- [||];
  h.free <- [||];
  h.free_top <- 0
