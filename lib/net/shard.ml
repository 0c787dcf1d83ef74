module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time

(* Cross-shard mail travels as plain ints, so the barrier allocates
   nothing per packet. A portal's egress has zero delay, so its receiver
   runs when the packet finishes serializing: it appends one mail record
   (portal index, arrival, packet words) to the source shard's outbox and
   releases the packet into the sending domain's pool. [arrival] is
   exactly the delivery time the packet would have had on an ordinary
   link. A record holds only the words its packet uses (4 for data and
   plain ACKs, up to 7 with SACK blocks), and [Packet.width] reads the
   width back from the stored flags word. At the barrier [inject] walks
   the outbox record by record, moves each record's packet words into
   its portal's inbox ring and pushes the arrival onto the portal's
   private FIFO lane in the destination sim, whose one [on_arrive]
   handler rebuilds the packet at the ring head from the receiving
   domain's pool and hands it to the destination node. A mail's arrival
   time and seq live only in the lane. *)
let header_words = 2

type portal = {
  mutable dst_node : Node.t;  (* [closed_node] once the cluster is closed *)
  lane : Sim.lane;  (* private lane in the destination sim *)
  mutable inbox : int array;
      (* FIFO ring of packet words, records back to back and possibly
         wrapping; [||] until the first mail *)
  mutable head : int;  (* word index of the oldest record *)
  mutable len : int;  (* words in use *)
  mutable on_arrive : Sim.handler;  (* registered in [portal] *)
}

type shard = {
  sim : Sim.t;
  net : Network.t;
  mutable outbox : int array;
      (* (portal, arrival, packet words) records, emission order *)
  mutable outbox_len : int;  (* ints in use *)
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
        { sim; net = Network.create sim; outbox = [||]; outbox_len = 0 })
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

(* Source domain, during the epoch. *)
let post s ~portal ~arrival p =
  let o = s.outbox_len in
  let room = Array.length s.outbox in
  if o + header_words + Packet.words > room then begin
    (* from 64 six-int records (a data packet or a plain ACK) *)
    let box = Array.make (Int.max 384 (2 * room)) 0 in
    Array.blit s.outbox 0 box 0 o;
    s.outbox <- box
  end;
  s.outbox.(o) <- portal;
  s.outbox.(o + 1) <- arrival;
  let w = Packet.store p s.outbox (o + header_words) in
  s.outbox_len <- o + header_words + w

(* Orchestrator, at the barrier: copy the [w] packet words at
   [box.(off)] to the inbox ring's tail, wrapping at its end. A ring
   without room doubles, its records unwrapped to start at word 0. *)
let inbox_push pt box off w =
  let cap = Array.length pt.inbox in
  if pt.len + w > cap then begin
    (* from 8 four-word records; doubling always makes room for [w] *)
    let ring = Array.make (Int.max 32 (2 * cap)) 0 in
    let first = Int.min pt.len (cap - pt.head) in
    Array.blit pt.inbox pt.head ring 0 first;
    Array.blit pt.inbox 0 ring first (pt.len - first);
    pt.inbox <- ring;
    pt.head <- 0
  end;
  let cap = Array.length pt.inbox in
  let tail = pt.head + pt.len in
  let tail = if tail >= cap then tail - cap else tail in
  let first = Int.min w (cap - tail) in
  Array.blit box off pt.inbox tail first;
  Array.blit box (off + first) pt.inbox 0 (w - first);
  pt.len <- pt.len + w

(* Destination domain, as the mail's arrival event. A portal's delay is
   constant, so its mail arrives in the order it was injected: the lane
   and the inbox ring stay in step. *)
let arrive pt =
  let w = Packet.width pt.inbox pt.head in
  let p = Packet.load pt.inbox pt.head in
  let next = pt.head + w in
  let cap = Array.length pt.inbox in
  pt.head <- (if next >= cap then next - cap else next);
  pt.len <- pt.len - w;
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
  let pt =
    {
      dst_node;
      lane = Sim.private_lane dst_sim;
      inbox = [||];
      head = 0;
      len = 0;
      on_arrive = Sim.no_handler;
    }
  in
  pt.on_arrive <- Sim.handler dst_sim (fun () -> arrive pt);
  let index = t.n_portals in
  (* the cells past [n_portals] are never read *)
  if index = Array.length t.portals then
    t.portals <- Xmp_engine.Tables.grow t.portals ~first:8 pt;
  t.portals.(index) <- pt;
  let name = Node.name src_node ^ "->" ^ Node.name dst_node in
  let receiver p =
    post s ~portal:index ~arrival:(Time.add (Sim.now s.sim) delay) p;
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

(* Drain every outbox in one pass: shards in index order, each outbox in
   emission order. Each destination sim orders events by (time, seq),
   and all mail injected here takes one contiguous block of its seqs, so
   mail arriving at the same instant is delivered in (source shard,
   emission) order whatever the domain count — which is what makes a
   domains-1 run and a domains-N run byte-identical. Runs on the
   orchestrating domain while the workers are parked at the barrier. *)
let inject t =
  let injected = ref 0 in
  for i = 0 to Array.length t.shards - 1 do
    let s = t.shards.(i) in
    let box = s.outbox in
    let o = ref 0 in
    while !o < s.outbox_len do
      let pt = t.portals.(box.(!o)) in
      let off = !o + header_words in
      let w = Packet.width box off in
      inbox_push pt box off w;
      Sim.lane_at pt.lane box.(!o + 1) pt.on_arrive;
      o := off + w;
      incr injected
    done;
    s.outbox_len <- 0
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
    let run_epoch ~until =
      match crew with
      | Some c -> crew_epoch t c ~until
      | None -> run_share t ~offset:0 ~stride:1 ~until
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
          run_epoch ~until:target;
          let injected = inject t in
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
                if not (Time.is_infinite until) then run_epoch ~until;
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
      s.outbox <- [||];
      s.outbox_len <- 0)
    t.shards;
  for i = 0 to t.n_portals - 1 do
    let pt = t.portals.(i) in
    pt.dst_node <- closed_node;
    pt.inbox <- [||];
    pt.head <- 0;
    pt.len <- 0
  done
