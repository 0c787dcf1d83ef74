module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time

(* Cross-shard mail travels as plain ints, so the barrier allocates
   nothing per packet. A portal's egress has zero delay, so its receiver
   runs when the packet finishes serializing: [post] appends one record,
   [arrival; packet words], to the portal's FIFO and releases the packet
   into the sending domain's pool; the source shard's emission log
   counts it. [arrival] is exactly the delivery time the packet would
   have had on an ordinary link. A record holds only the words its
   packet uses (4 for data and plain ACKs, up to 7 with SACK blocks),
   and [Packet.width] reads the width back from the stored flags word.
   The record stays where [post] wrote it until it
   arrives: at the barrier [inject] walks the logs, reads each arrival
   through the orchestrator's cursor and pushes it onto the portal's
   private FIFO lane in the destination sim, whose handler rebuilds the
   packet in place from the receiving domain's pool and hands it to the
   destination node. A mail's seq lives only in the lane. *)

(* A link of a portal's FIFO. Records sit back to back from word 0 and
   never straddle two chunks: where the next record does not fit, the
   source writes [-1] after the last one (unless the chunk is full) and
   goes on in the next chunk. A chunk's size never changes, so no array
   is reallocated under another domain's reader. *)
type chunk = { words : int array; mutable next : chunk }

let rec nil =
  (* xmplint: allow mutable-global — the end of every chain: nothing
     writes its [next], since only a chunk taken into a FIFO is linked *)
  { words = [||]; next = nil }

(* A portal's mail FIFO, made at its first mail. Three parties walk the
   one chain, each through its own fields: the source appends at [tail]
   during an epoch, the orchestrator moves [cursor] over the records
   posted in the last epoch at the barrier, and the destination reads at
   [head] as each record arrives, so [head] never passes [cursor] nor
   [cursor] [tail]. A chunk the destination has read past goes back to
   the source shard through [returned]. *)
type fifo = {
  returned : chunk Atomic.t;  (* the source shard's *)
  mutable tail : chunk;
  mutable tail_off : int;  (* where the source's next record goes *)
  mutable cursor : chunk;
  mutable cursor_off : int;  (* the next record to inject *)
  mutable head : chunk;
  mutable head_off : int;  (* the next record to arrive *)
}

(* A FIFO whose one chunk [c] is empty. *)
let fifo_at returned c =
  {
    returned;
    tail = c;
    tail_off = 0;
    cursor = c;
    cursor_off = 0;
    head = c;
    head_off = 0;
  }

let no_fifo =
  (* xmplint: allow mutable-global — what a portal holds until its first
     mail and once closed: [post] replaces it before writing anything *)
  fifo_at (Atomic.make nil) nil

type portal = {
  mutable dst_node : Node.t;  (* [closed_node] once the cluster is closed *)
  lane : Sim.lane;  (* private lane in the destination sim *)
  mutable fifo : fifo;  (* [no_fifo] until the first mail *)
}

(* A shard's portals draw their chunks from one pool, so the chunks a
   quiet portal does not need serve a busy one. *)
type shard = {
  sim : Sim.t;
  net : Network.t;
  returned : chunk Atomic.t;
      (* chunks read past, a stack linked by [next]: destination domains
         push one with a CAS, the source takes them all at once *)
  mutable spare : chunk;  (* the source's free list, linked by [next] *)
  mutable log : int array;
      (* one int per run of consecutive mail to one portal, in emission
         order: the portal's index times [run_span] plus the run's
         length; [||] until the first mail *)
  mutable log_len : int;  (* ints in use *)
}

type t = {
  shards : shard array;
  mutable portals : portal array;  (* creation order; [n_portals] in use *)
  mutable min_portal_delay : Time.t;  (* Time.infinity until a portal exists *)
  mutable n_portals : int;
  mutable epoch : int;  (* next epoch window to run *)
  mutable injected : int;  (* lifetime mail count, for stats/tests *)
  mutable closed : bool;
}

let create ?(config = Sim.default_config) ~shards:n () =
  if n < 1 then invalid_arg "Shard.create: need at least one shard";
  let shards =
    Array.init n (fun index ->
        (* distinct seed per shard so shards do not mirror each other's
           random choices; the offset is part of the reproducible setup *)
        let sim =
          Sim.create ~config:{ config with Sim.seed = config.seed + index } ()
        in
        {
          sim;
          net = Network.create sim;
          returned = Atomic.make nil;
          spare = nil;
          log = [||];
          log_len = 0;
        })
  in
  {
    shards;
    portals = [||];
    min_portal_delay = Time.infinity;
    n_portals = 0;
    epoch = 0;
    injected = 0;
    closed = false;
  }

let n_shards t = Array.length t.shards

let check_index t i =
  if i < 0 || i >= Array.length t.shards then invalid_arg "Shard: index"

let net t i =
  check_index t i;
  t.shards.(i).net

let sim t i =
  check_index t i;
  t.shards.(i).sim

let epoch_delta t = t.min_portal_delay

let mail_injected t = t.injected

(* A portal's first chunk has room for two of the widest records; when
   the pool is empty the source makes one twice the size of the chunk it
   leaves, up to [last_chunk] ints. So a portal that carries a few
   packets at a time keeps one small chunk, and a busy one wastes little
   at chunk ends. *)
let first_chunk = 2 * (1 + Packet.words)

let last_chunk = 512

(* Source domain: a chunk after [prev] ([nil] for a portal's first),
   from the free list, else from what destinations handed back, else a
   new one. *)
let take s prev =
  if s.spare == nil then s.spare <- Atomic.exchange s.returned nil;
  let c = s.spare in
  if c == nil then
    let n =
      if prev == nil then first_chunk
      else Int.min last_chunk (2 * Array.length prev.words)
    in
    { words = Array.make n 0; next = nil }
  else begin
    s.spare <- c.next;
    c.next <- nil;
    c
  end

(* The log's length field: a run is at most [run_span - 1] mails. *)
let run_span = 1 lsl 32

(* No record starts at [off] in [c]: the reader goes on in [c.next]. *)
let[@inline] chunk_done c off = off = Array.length c.words || c.words.(off) < 0

(* Source domain, during the epoch. *)
let post s pt ~portal ~arrival p =
  if pt.fifo == no_fifo then pt.fifo <- fifo_at s.returned (take s nil);
  let f = pt.fifo in
  let tail = f.tail in
  let off = f.tail_off in
  (* the record: the arrival, then 4 words and one per SACK block *)
  if off + 5 + Packet.sack_count p > Array.length tail.words then begin
    let c = take s tail in
    if off < Array.length tail.words then tail.words.(off) <- -1;
    tail.next <- c;
    f.tail <- c;
    f.tail_off <- 0
  end;
  let words = f.tail.words and off = f.tail_off in
  words.(off) <- arrival;
  f.tail_off <- off + 1 + Packet.store p words (off + 1);
  let n = s.log_len in
  if n > 0 && s.log.(n - 1) / run_span = portal then
    s.log.(n - 1) <- s.log.(n - 1) + 1
  else begin
    if n = Array.length s.log then begin
      (* from 16 runs *)
      let log = Array.make (Int.max 16 (2 * n)) 0 in
      Array.blit s.log 0 log 0 n;
      s.log <- log
    end;
    s.log.(n) <- (portal * run_span) + 1;
    s.log_len <- n + 1
  end

(* Destination domain, once it has read past [c]. Every destination of
   a shard's portals pushes onto the one stack and the source takes it
   whole, so a failed CAS only means another of them came first. *)
let rec hand_back returned c =
  let top = Atomic.get returned in
  c.next <- top;
  if not (Atomic.compare_and_set returned top c) then hand_back returned c

(* Destination domain, as the mail's arrival event. A portal's delay is
   constant, so its mail arrives in the order it was posted: the lane
   and the FIFO stay in step. *)
let arrive pt =
  let f = pt.fifo in
  let c = f.head in
  if chunk_done c f.head_off then begin
    f.head <- c.next;
    f.head_off <- 0;
    hand_back f.returned c
  end;
  let words = f.head.words and off = f.head_off + 1 in
  let p = Packet.load words off in
  f.head_off <- off + Packet.width words off;
  Node.receive pt.dst_node p

(* A portal is one directed cross-shard link. Serialization (and the
   egress queue) runs in the source shard at the given rate; the
   propagation [delay] is applied across the epoch barrier. [delay] is
   the conservative-parallelism lookahead, so it must be positive — the
   epoch length is the minimum portal delay, and mail emitted in epoch e
   then always arrives in epoch e+1 or later. *)
let portal t ?tag ~src:(src_shard, src_node) ~dst:(dst_shard, dst_node) ~rate
    ~delay ~disc () =
  check_index t src_shard;
  check_index t dst_shard;
  if src_shard = dst_shard then
    invalid_arg "Shard.portal: endpoints in the same shard";
  if Time.compare delay Time.zero <= 0 then
    invalid_arg "Shard.portal: delay must be positive (it is the lookahead)";
  let s = t.shards.(src_shard) in
  let dst_sim = t.shards.(dst_shard).sim in
  let index = t.n_portals in
  (* the portal is filed under [index] below, before any mail *)
  let on_arrive = Sim.handler dst_sim (fun () -> arrive t.portals.(index)) in
  let pt =
    { dst_node; lane = Sim.private_lane dst_sim on_arrive; fifo = no_fifo }
  in
  (* the cells past [n_portals] are never read *)
  if index = Array.length t.portals then
    t.portals <- Xmp_engine.Tables.grow t.portals ~first:8 pt;
  t.portals.(index) <- pt;
  let name = Node.name src_node ^ "->" ^ Node.name dst_node in
  let receiver p =
    post s pt ~portal:index ~arrival:(Time.add (Sim.now s.sim) delay) p;
    Packet.release p
  in
  let link =
    Network.add_egress s.net ?tag ~name ~rate ~delay:Time.zero ~disc src_node
      receiver
  in
  if Time.compare delay t.min_portal_delay < 0 then t.min_portal_delay <- delay;
  t.n_portals <- index + 1;
  link

let connect t ?tag ~rate ~delay ~disc (sa, a) (sb, b) =
  check_index t sa;
  if sa = sb then Network.connect t.shards.(sa).net ?tag ~rate ~delay ~disc a b
  else
    let fwd = portal t ?tag ~src:(sa, a) ~dst:(sb, b) ~rate ~delay ~disc () in
    (fwd, portal t ?tag ~src:(sb, b) ~dst:(sa, a) ~rate ~delay ~disc ())

(* ---- the epoch barrier ------------------------------------------------ *)

(* The arrival of the record at [f]'s cursor; the cursor moves past it. *)
let next_arrival f =
  let c = f.cursor in
  if chunk_done c f.cursor_off then begin
    f.cursor <- c.next;
    f.cursor_off <- 0
  end;
  let words = f.cursor.words and off = f.cursor_off in
  f.cursor_off <- off + 1 + Packet.width words (off + 1);
  words.(off)

(* Walk every emission log in one pass: shards in index order, each log
   in emission order. Each destination sim orders events by (time, seq),
   and all mail injected here takes one contiguous block of its seqs, so
   mail arriving at the same instant is delivered in (source shard,
   emission) order whatever the domain count — which is what makes a
   domains-1 run and a domains-N run byte-identical. Runs on the
   orchestrating domain while the workers are parked at the barrier. *)
let inject t =
  let injected = ref 0 in
  for i = 0 to Array.length t.shards - 1 do
    let s = t.shards.(i) in
    let log = s.log in
    for r = 0 to s.log_len - 1 do
      let pt = t.portals.(log.(r) / run_span) in
      let count = log.(r) mod run_span in
      for _ = 1 to count do
        Sim.lane_at pt.lane (next_arrival pt.fifo)
      done;
      injected := !injected + count
    done;
    s.log_len <- 0
  done;
  t.injected <- t.injected + !injected;
  !injected

let run_share t ~offset ~stride ~until =
  let n = Array.length t.shards in
  let i = ref offset in
  while !i < n do
    Sim.run ~until t.shards.(!i).sim;
    i := !i + stride
  done

(* On one domain the shards take turns through an epoch in [steps], as
   domains would run side by side, so the destination of a portal hands
   chunks back while its source still fills the FIFO: a FIFO then holds
   about one window of mail, not the window being read plus the one
   being written. Each step sweeps every shard, so an epoch takes a step
   per [mail_per_step] mails the last barrier injected, up to
   [max_steps]: with little mail in flight there is little to hand back.
   Each shard runs the same events in the same order either way. Only
   an epoch after a barrier of this [run] takes steps, so every clock is
   before [start]. *)
let mail_per_step = 512

let max_steps = 8

let run_steps t ~delta ~start ~until ~steps =
  for j = 1 to steps - 1 do
    let stop = Time.min until (start + (delta * j / steps) - 1) in
    run_share t ~offset:0 ~stride:1 ~until:stop
  done;
  run_share t ~offset:0 ~stride:1 ~until

(* Persistent worker crew: spawned once per [run] call, signalled once
   per epoch. Worker [w] owns shards {i | i mod domains = w+1}; the
   orchestrating domain takes residue 0 and runs the barrier phases
   (mail injection) alone while the workers wait. The mutex
   hand-offs at the barrier are also the happens-before edges that
   publish each epoch's simulator state between domains. *)
type crew = {
  domains : int;
  mutex : Mutex.t;
  go : Condition.t;
  finished : Condition.t;
  mutable generation : int;
  mutable target : Time.t;
  mutable stop : bool;
  mutable completed : int;
  mutable failure : exn option;
  mutable handles : unit Domain.t list;
}

let worker t crew ~offset =
  let rec loop my_gen =
    Mutex.lock crew.mutex;
    while crew.generation = my_gen && not crew.stop do
      Condition.wait crew.go crew.mutex
    done;
    let stop = crew.stop in
    let gen = crew.generation in
    let target = crew.target in
    Mutex.unlock crew.mutex;
    if not stop then begin
      (match run_share t ~offset ~stride:crew.domains ~until:target with
      | () -> ()
      | exception e ->
        Mutex.lock crew.mutex;
        if crew.failure = None then crew.failure <- Some e;
        Mutex.unlock crew.mutex);
      Mutex.lock crew.mutex;
      crew.completed <- crew.completed + 1;
      Condition.signal crew.finished;
      Mutex.unlock crew.mutex;
      loop gen
    end
  in
  loop 0

let start_crew t ~domains =
  let crew =
    {
      domains;
      mutex = Mutex.create ();
      go = Condition.create ();
      finished = Condition.create ();
      generation = 0;
      target = Time.zero;
      stop = false;
      completed = 0;
      failure = None;
      handles = [];
    }
  in
  crew.handles <-
    List.init (domains - 1) (fun w ->
        Domain.spawn (fun () -> worker t crew ~offset:(w + 1)));
  crew

let crew_epoch t crew ~until =
  Mutex.lock crew.mutex;
  crew.target <- until;
  crew.completed <- 0;
  crew.generation <- crew.generation + 1;
  Condition.broadcast crew.go;
  Mutex.unlock crew.mutex;
  run_share t ~offset:0 ~stride:crew.domains ~until;
  Mutex.lock crew.mutex;
  while crew.completed < crew.domains - 1 do
    Condition.wait crew.finished crew.mutex
  done;
  let failure = crew.failure in
  Mutex.unlock crew.mutex;
  match failure with Some e -> raise e | None -> ()

let stop_crew crew =
  Mutex.lock crew.mutex;
  crew.stop <- true;
  Condition.broadcast crew.go;
  Mutex.unlock crew.mutex;
  List.iter Domain.join crew.handles

let min_next_event t =
  Array.fold_left
    (fun acc s -> Time.min acc (Sim.next_event_time s.sim))
    Time.infinity t.shards

let run ?(domains = 1) ?(until = Time.infinity) ?on_epoch t =
  if domains < 1 then invalid_arg "Shard.run: domains";
  if t.closed then invalid_arg "Shard.run: the cluster is closed";
  if t.n_portals = 0 then begin
    (* no cross-shard edges: the shards are independent simulations and
       one pass each is the whole computation. The barrier hook still
       fires once so generators can seed their whole schedule. *)
    (match on_epoch with Some f -> ignore (f ~target:until) | None -> ());
    Array.iter (fun s -> Sim.run ~until s.sim) t.shards;
    ignore (inject t)
  end
  else begin
    let delta = t.min_portal_delay in
    let crew =
      if domains > 1 && Array.length t.shards > 1 then
        Some (start_crew t ~domains:(Int.min domains (Array.length t.shards)))
      else None
    in
    let mail = ref 0 in  (* injected at this run's last barrier *)
    let run_epoch ~start ~until =
      match crew with
      | Some c -> crew_epoch t c ~until
      | None ->
        let steps = Int.min max_steps (1 + (!mail / mail_per_step)) in
        run_steps t ~delta ~start ~until ~steps
    in
    let finally () = match crew with Some c -> stop_crew c | None -> () in
    Fun.protect ~finally (fun () ->
        let continue = ref true in
        while !continue do
          (* epoch e covers [e*delta, (e+1)*delta); run is inclusive of
             its bound, hence the -1 *)
          let window_end = Time.mul delta (t.epoch + 1) - 1 in
          let target = Time.min until window_end in
          (* barrier hook: every worker is parked here, so the callback
             may mutate any shard (e.g. create cross-shard flows due in
             this window). It returns the time of its earliest remaining
             action beyond [target] (Time.infinity when exhausted), which
             joins the idle fast-forward below. *)
          let hint =
            match on_epoch with
            | Some f -> f ~target
            | None -> Time.infinity
          in
          run_epoch ~start:(Time.mul delta t.epoch) ~until:target;
          let injected = inject t in
          mail := injected;
          if target >= until then continue := false
          else begin
            (* the full window completed: advance, fast-forwarding over
               idle epochs when nothing is scheduled, no mail landed and
               the hook holds nothing sooner *)
            t.epoch <- t.epoch + 1;
            if injected = 0 then begin
              let nt = Time.min (min_next_event t) hint in
              if nt = Time.infinity || Time.compare nt until > 0 then begin
                (* nothing left inside the horizon: one last pass parks
                   every clock at [until] (matching Sim.run's cutoff
                   semantics), then stop *)
                if not (Time.is_infinite until) then
                  run_epoch ~start:until ~until;
                continue := false
              end
              else t.epoch <- Int.max t.epoch (Time.div nt delta)
            end
          end
        done)
  end

let events_executed t =
  Array.fold_left (fun acc s -> acc + Sim.events_executed s.sim) 0 t.shards

(* What a closed cluster's portals point to instead of their
   destinations. The portal table may live in the major heap with cells
   a young portal was written into still remembered, so the next minor
   collection promotes the portals: pointing away from the fabric, they
   take only themselves and their closed sims' records with them. *)
let closed_node =
  (* xmplint: allow mutable-global — a node with no ports or routes that
     nothing sends to: only closed portals point to it *)
  Node.create ~kind:Node.Switch ~id:(-1) ~name:"closed"

let close t =
  t.closed <- true;
  Array.iter
    (fun s ->
      Sim.close s.sim;
      Network.close s.net;
      Atomic.set s.returned nil;
      s.spare <- nil;
      s.log <- [||];
      s.log_len <- 0)
    t.shards;
  for i = 0 to t.n_portals - 1 do
    let pt = t.portals.(i) in
    pt.dst_node <- closed_node;
    pt.fifo <- no_fifo
  done
