type kind = Data | Ack

let data_wire_bytes = 1500
let payload_bytes = 1460
let ack_wire_bytes = 60

(* Two packed header words (the PR 5 endpoint-key trick extended to the
   whole header), a flag word and a timestamp; SACK blocks live in three
   packed slots instead of a list. All fields mutable so one record can
   be reused for the lifetime of the process via the free-list pool. *)
type t = {
  mutable w0 : int;  (* dst:20 | flow:30 | subflow:12 — endpoint-key layout *)
  mutable w1 : int;  (* src:20 | path:10 | kind:1 | seq:31 *)
  mutable flags : int;  (* ect:1 | ce:1 | cwr:1 | free:1 | ece:16 | nsack:2 *)
  mutable ts : Xmp_engine.Time.t;
  mutable sack0 : int;  (* start:31 | stop:31, valid below nsack *)
  mutable sack1 : int;
  mutable sack2 : int;
}

(* ---- packed-field layout ---------------------------------------------- *)

let subflow_bits = 12
let flow_bits = 30
let host_bits = 20
let path_bits = 10
let seq_bits = 31
let ece_bits = 16

let max_subflow = (1 lsl subflow_bits) - 1
let max_flow = (1 lsl flow_bits) - 1
let max_host = (1 lsl host_bits) - 1
let max_path = (1 lsl path_bits) - 1
let max_seq = (1 lsl seq_bits) - 1
let max_ece = (1 lsl ece_bits) - 1
let max_sack_bound = (1 lsl 31) - 1

let ect_bit = 1
let ce_bit = 2
let cwr_bit = 4
let free_bit = 8
let ece_shift = 4
let nsack_shift = ece_shift + ece_bits
let kind_bit = 1 lsl seq_bits

let pack_w0 ~dst ~flow ~subflow =
  (((dst lsl flow_bits) lor flow) lsl subflow_bits) lor subflow

let pack_w1 ~src ~path ~ack ~seq =
  (((src lsl path_bits) lor path) lsl (seq_bits + 1))
  lor (if ack then kind_bit else 0)
  lor seq

(* ---- accessors -------------------------------------------------------- *)

let[@inline] dst p = p.w0 lsr (flow_bits + subflow_bits)
let[@inline] flow p = (p.w0 lsr subflow_bits) land max_flow
let[@inline] subflow p = p.w0 land max_subflow

let[@inline] endpoint_key p = p.w0

let[@inline] src p = p.w1 lsr (path_bits + seq_bits + 1)
let[@inline] path p = (p.w1 lsr (seq_bits + 1)) land max_path
let[@inline] is_ack p = p.w1 land kind_bit <> 0
let[@inline] kind p = if is_ack p then Ack else Data
let[@inline] seq p = p.w1 land max_seq

let[@inline] size p = if is_ack p then ack_wire_bytes else data_wire_bytes

let[@inline] ect p = p.flags land ect_bit <> 0
let[@inline] ce p = p.flags land ce_bit <> 0
let[@inline] cwr p = p.flags land cwr_bit <> 0
let[@inline] ece_count p = (p.flags lsr ece_shift) land max_ece
let[@inline] ts p = p.ts

let[@inline] set_ce p = p.flags <- p.flags lor ce_bit

let[@inline] sack_count p = p.flags lsr nsack_shift

let sack_slot p i =
  match i with
  | 0 -> p.sack0
  | 1 -> p.sack1
  | _ -> p.sack2

let[@inline] sack_start p i = sack_slot p i lsr 31
let[@inline] sack_stop p i = sack_slot p i land max_sack_bound

let sack p =
  let rec blocks i acc =
    if i < 0 then acc
    else blocks (i - 1) ((sack_start p i, sack_stop p i) :: acc)
  in
  blocks (sack_count p - 1) []

let add_sack_block p ~start ~stop =
  let n = sack_count p in
  if n >= 3 then invalid_arg "Packet.add_sack_block: at most 3 blocks";
  if start < 0 || start > max_sack_bound || stop < 0 || stop > max_sack_bound
  then invalid_arg "Packet.add_sack_block: bound outside 31-bit range";
  let slot = (start lsl 31) lor stop in
  (match n with
  | 0 -> p.sack0 <- slot
  | 1 -> p.sack1 <- slot
  | _ -> p.sack2 <- slot);
  p.flags <- p.flags + (1 lsl nsack_shift)

(* ---- free-list pool --------------------------------------------------- *)

(* Packets cycle acquire -> wire -> consume -> release; the pool keeps
   every record ever created so steady state allocates nothing. The pool
   is domain-local (no locks on the hot path); a sharded simulation's
   shards each recycle through their own domain's pool. *)
type pool = {
  mutable stack : t array;  (* free records in stack.(0 .. top-1) *)
  mutable top : int;
  mutable created : int;
}

(* Shared placeholder for array slots and pre-transmit link registers;
   never enters circulation (its free bit stays set, so releasing it is
   reported as a double release). *)
let dummy =
  (* xmplint: allow mutable-global — placeholder record nothing ever
     writes; the mutability is structural (same type as pooled packets) *)
  { w0 = 0; w1 = 0; flags = free_bit; ts = 0; sack0 = 0; sack1 = 0; sack2 = 0 }

let pool_key =
  Domain.DLS.new_key (fun () -> { stack = [||]; top = 0; created = 0 })

let pool_created () = (Domain.DLS.get pool_key).created
let pool_free () = (Domain.DLS.get pool_key).top

let acquire () =
  let pool = Domain.DLS.get pool_key in
  if pool.top > 0 then begin
    pool.top <- pool.top - 1;
    pool.stack.(pool.top)
  end
  else begin
    pool.created <- pool.created + 1;
    { w0 = 0; w1 = 0; flags = 0; ts = 0; sack0 = 0; sack1 = 0; sack2 = 0 }
  end

let release p =
  if p.flags land free_bit <> 0 then
    invalid_arg "Packet.release: packet already released";
  (* the free flag doubles as a full reset: every other flag bit (and the
     sack count) is cleared, and the constructors overwrite the rest *)
  p.flags <- free_bit;
  let pool = Domain.DLS.get pool_key in
  if pool.top = Array.length pool.stack then
    pool.stack <- Xmp_engine.Tables.grow pool.stack ~first:64 dummy;
  pool.stack.(pool.top) <- p;
  pool.top <- pool.top + 1

(* [Array.make] over 256 slots with [dummy] as the fill forces a minor
   collection whenever [dummy] is still young, as in a process's first
   run, so a larger ring, at most twice [len], is the unwrapped packets
   followed by the first [cap - len] of them again, built from
   [Array.sub] and [Array.append], which copy with caml_initialize (see
   Xmp_engine.Tables). Like a popped slot, nothing reads the repeats
   before they are written. *)
let grow_ring ring ~head ~len cap =
  let first = Int.min len (Array.length ring - head) in
  if cap <= 256 then begin
    let grown = Array.make cap dummy in
    Array.blit ring head grown 0 first;
    Array.blit ring 0 grown first (len - first);
    grown
  end
  else
    let u =
      Array.append (Array.sub ring head first) (Array.sub ring 0 (len - first))
    in
    Array.append u (Array.sub u 0 (cap - len))

(* ---- constructors ----------------------------------------------------- *)

let check_header ~flow ~subflow ~src ~dst ~path ~seq =
  if
    flow < 0 || flow > max_flow || subflow < 0 || subflow > max_subflow
    || src < 0 || src > max_host || dst < 0 || dst > max_host || path < 0
    || path > max_path || seq < 0 || seq > max_seq
  then
    invalid_arg
      (Printf.sprintf
         "Packet: header (flow=%d subflow=%d src=%d dst=%d path=%d seq=%d) \
          outside packed ranges (flow<=%d, subflow<=%d, host<=%d, path<=%d, \
          seq<=%d)"
         flow subflow src dst path seq max_flow max_subflow max_host max_path
         max_seq)

let data ~flow ~subflow ~src ~dst ~path ~seq ~ect ~cwr ~ts =
  check_header ~flow ~subflow ~src ~dst ~path ~seq;
  let p = acquire () in
  p.w0 <- pack_w0 ~dst ~flow ~subflow;
  p.w1 <- pack_w1 ~src ~path ~ack:false ~seq;
  p.flags <- (if ect then ect_bit else 0) lor (if cwr then cwr_bit else 0);
  p.ts <- ts;
  p

let ack ?(sack = []) ~flow ~subflow ~src ~dst ~path ~seq ~ece_count ~ts () =
  check_header ~flow ~subflow ~src ~dst ~path ~seq;
  if ece_count < 0 || ece_count > max_ece then
    invalid_arg "Packet: ece_count outside packed range";
  let p = acquire () in
  p.w0 <- pack_w0 ~dst ~flow ~subflow;
  p.w1 <- pack_w1 ~src ~path ~ack:true ~seq;
  p.flags <- ece_count lsl ece_shift;
  p.ts <- ts;
  List.iter (fun (start, stop) -> add_sack_block p ~start ~stop) sack;
  p

(* ---- packet words ----------------------------------------------------- *)

(* A stored record is [w0; w1; flags; ts] and then its [sack_count]
   blocks: the flags word it carries gives its width, so a run of records
   needs no length prefix. *)
let words = 7

let[@inline] width_of_flags flags = 4 + (flags lsr nsack_shift)

let store p a off =
  let flags = p.flags land lnot free_bit in
  a.(off) <- p.w0;
  a.(off + 1) <- p.w1;
  a.(off + 2) <- flags;
  a.(off + 3) <- p.ts;
  let n = sack_count p in
  if n > 0 then a.(off + 4) <- p.sack0;
  if n > 1 then a.(off + 5) <- p.sack1;
  if n > 2 then a.(off + 6) <- p.sack2;
  width_of_flags flags

(* word [i] of the record at [off] in ring [a], read across the wrap *)
let[@inline] word a off i =
  let j = off + i in
  let n = Array.length a in
  a.(if j >= n then j - n else j)

let width a off = width_of_flags (word a off 2)

let load a off =
  let p = acquire () in
  let flags = word a off 2 in
  p.w0 <- word a off 0;
  p.w1 <- word a off 1;
  p.flags <- flags land lnot free_bit;
  p.ts <- word a off 3;
  let n = flags lsr nsack_shift in
  if n > 0 then p.sack0 <- word a off 4;
  if n > 1 then p.sack1 <- word a off 5;
  if n > 2 then p.sack2 <- word a off 6;
  p

let pp fmt p =
  let kind = if is_ack p then "ack" else "data" in
  Format.fprintf fmt "%s[f%d.%d %d->%d path%d seq=%d%s%s]" kind (flow p)
    (subflow p) (src p) (dst p) (path p) (seq p)
    (if ce p then " CE" else "")
    (if ece_count p > 0 then Printf.sprintf " ece=%d" (ece_count p) else "")
