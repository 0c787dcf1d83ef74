module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time

(* Cross-shard mail: a packet captured at a portal. The image is taken
   (and the record released into the sending domain's pool) the moment
   the packet finishes serializing; the portal's propagation delay is
   applied across the barrier, so [arrival] is exactly the delivery time
   the packet would have had on an ordinary link. *)
type mail = {
  arrival : Time.t;
  src_shard : int;
  emit_seq : int;  (* per-shard emission counter: total order within a shard *)
  img : Packet.image;
  dst_shard : int;
  dst_node : Node.t;
}

type shard = {
  sim : Sim.t;
  net : Network.t;
  mutable outbox_rev : mail list;
  mutable emitted : int;
}

type t = {
  shards : shard array;
  mutable min_portal_delay : Time.t;  (* Time.infinity until a portal exists *)
  mutable n_portals : int;
  mutable epoch : int;  (* next epoch window to run *)
  mutable injected : int;  (* lifetime mail count, for stats/tests *)
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
        { sim; net = Network.create sim; outbox_rev = []; emitted = 0 })
  in
  {
    shards;
    min_portal_delay = Time.infinity;
    n_portals = 0;
    epoch = 0;
    injected = 0;
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
  let name = Node.name src_node ^ "->" ^ Node.name dst_node in
  let receiver p =
    let m =
      {
        arrival = Time.add (Sim.now s.sim) delay;
        src_shard;
        emit_seq = s.emitted;
        img = Packet.image p;
        dst_shard;
        dst_node;
      }
    in
    s.emitted <- s.emitted + 1;
    s.outbox_rev <- m :: s.outbox_rev;
    Packet.release p
  in
  let link =
    Network.add_egress s.net ?tag ~name ~rate ~delay:Time.zero ~disc src_node
      receiver
  in
  if Time.compare delay t.min_portal_delay < 0 then t.min_portal_delay <- delay;
  t.n_portals <- t.n_portals + 1;
  link

let connect t ?tag ~rate ~delay ~disc (sa, a) (sb, b) =
  check_index t sa;
  if sa = sb then Network.connect t.shards.(sa).net ?tag ~rate ~delay ~disc a b
  else
    let fwd = portal t ?tag ~src:(sa, a) ~dst:(sb, b) ~rate ~delay ~disc () in
    (fwd, portal t ?tag ~src:(sb, b) ~dst:(sa, a) ~rate ~delay ~disc ())

(* ---- the epoch barrier ------------------------------------------------ *)

let mail_order a b =
  let c = Time.compare a.arrival b.arrival in
  if c <> 0 then c
  else
    let c = Int.compare a.src_shard b.src_shard in
    if c <> 0 then c else Int.compare a.emit_seq b.emit_seq

(* Drain every outbox, then inject in one deterministic total order:
   (arrival, src_shard, emit_seq). The order fixes the destination sims'
   insertion sequence numbers, which is what makes a domains-1 run and a
   domains-N run byte-identical. Runs on the orchestrating domain while
   the workers are parked at the barrier. *)
let inject t =
  let mails =
    Array.fold_left
      (fun acc s ->
        let ms = List.rev s.outbox_rev in
        s.outbox_rev <- [];
        ms :: acc)
      [] t.shards
    |> List.concat |> List.sort mail_order
  in
  List.iter
    (fun m ->
      let img = m.img and node = m.dst_node in
      Sim.at t.shards.(m.dst_shard).sim m.arrival (fun () ->
          Node.receive node (Packet.of_image img)))
    mails;
  let n = List.length mails in
  t.injected <- t.injected + n;
  n

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
   (mail merge, injection) alone while the workers wait. The mutex
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
        Some (start_crew t ~domains:(Stdlib.min domains (Array.length t.shards)))
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
              else t.epoch <- Stdlib.max t.epoch (Time.div nt delta)
            end
          end
        done)
  end

let events_executed t =
  Array.fold_left (fun acc s -> acc + Sim.events_executed s.sim) 0 t.shards
