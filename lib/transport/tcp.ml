module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Invariant = Xmp_check.Invariant
module Network = Xmp_net.Network
module Node = Xmp_net.Node
module Packet = Xmp_net.Packet
module Tel = Xmp_telemetry

type echo_mode = Classic | Counted of int option

type config = {
  rto_min : Time.t;
  rto_max : Time.t;
  rto_granularity : Time.t;
  delack_segments : int;
  delack_timeout : Time.t;
  dupack_threshold : int;
  ect : bool;
  echo : echo_mode;
  sack : bool;
  reassembly_limit : int;
}

let default_config =
  {
    rto_min = Time.ms 200;
    rto_max = Time.sec 60.;
    rto_granularity = Time.us 200;
    delack_segments = 2;
    delack_timeout = Time.us 200;
    dupack_threshold = 3;
    ect = false;
    echo = Counted (Some 3);
    (* SACK defaults off: the paper's evaluation is dominated by 200 ms
       RTO recovery for its loss-driven baselines (§5.2.2/§5.2.3), which
       is the behaviour of a stack whose losses exceed what SACK-based
       fast recovery repairs. The SACK ablation quantifies the
       difference. *)
    sack = false;
    (* cap on buffered out-of-order segments; far above any cwnd this
       simulator reaches, so it only bites under pathological injected
       loss, where it bounds receiver state instead of growing without
       limit *)
    reassembly_limit = 4096;
  }

let ecn_config = { default_config with ect = true }

type source = Infinite | Limited of int ref

type t = {
  net : Network.t;
  sim : Sim.t;
  config : config;
  flow : int;
  subflow : int;
  src : int;
  dst : int;
  path : int;
  src_node : Node.t;
  dst_node : Node.t;
  (* Receiver half. In split mode ([rcv_net] differs from [net]) the
     receiver lives on another shard: its endpoint registers on
     [rcv_net], its timers run on that network's sim, and no mutable field is
     touched by both halves — the sender and receiver then communicate
     through packets alone, which keeps a cross-shard flow free of
     cross-domain data races. *)
  rcv_net : Network.t;  (* [net] itself unless split *)
  cc : Cc.t;
  view : Cc.view;
      (* what the controller reads, kept current here; it also holds the
         sender's [snd_una] and [snd_max] (as [view.snd_nxt]) *)
  est : Rtt_estimator.t;
  source : source;
  started_at : Time.t;
  (* sender. Sequence positions: [snd_una] ≤ [snd_nxt] ≤ [snd_max].
     [snd_max] is the highest segment ever taken from the source (+1);
     [snd_nxt] is the next segment to (re)transmit — after a timeout it is
     rolled back to [snd_una] (go-back-N), so segments in
     [snd_nxt, snd_max) are pending retransmission. *)
  mutable snd_nxt : int;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable sacked : Seqset.t;
      (* scoreboard: segments above snd_una the receiver holds *)
  mutable rexmit_high : int;
      (* highest hole fast recovery has retransmitted; repairs triggered
         by later SACK news start above it so a hole is resent at most
         once per recovery episode *)
  mutable rto_deadline : Time.t;
  mutable watchdog_time : Time.t;  (* fire time of the live watchdog *)
  mutable watchdog : Sim.timer option;  (* the live watchdog's handle *)
  mutable wd_fire : unit -> unit;
      (* the watchdog body, allocated once — rescheduling the chased
         deadline then costs no closure *)
  mutable torn_down : bool;
  mutable completed_at : Time.t option;
  (* receiver *)
  mutable rcv_nxt : int;
  mutable rcv_ooo : Seqset.t;  (* buffered segments above rcv_nxt *)
  mutable pending_ce : int;
  mutable ece_latched : bool;
  mutable delack_pending : int;
  mutable delack_timer : Sim.timer option;
  mutable delack_fire : unit -> unit;  (* allocated once, like [wd_fire] *)
  mutable rcv_closed : bool;
      (* receiver-owned mark: the receiver is not registered. It mirrors
         [torn_down] in same-net mode; a split receiver starts closed,
         opens in [open_receiver] and closes in [close_receiver] (it
         outlives the sender half and dead-letters late arrivals) *)
  mutable last_ts : Time.t;
  (* stats *)
  mutable segments_sent : int;
  mutable segments_acked : int;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable fast_retransmits : int;
  owner : owner;
  (* telemetry: resolved once at creation, [None] exactly when the sink
     is disabled, so the disabled case stays a single branch per site *)
  instruments : instruments option;
}

and owner = Owner : 'a hooks * 'a -> owner

and 'a hooks = {
  acked : 'a -> t -> int -> unit;
  rtt_sample : 'a -> Time.t -> unit;
  complete : 'a -> t -> unit;
}

and instruments = {
  tel : Tel.Sink.t;
  h_rtt : Tel.Metric.Histogram.t;
  c_retransmits : Tel.Metric.Counter.t;
  c_timeouts : Tel.Metric.Counter.t;
}

let nop1 _ = ()

let silent =
  Owner
    ( {
        acked = (fun () _ _ -> ());
        rtt_sample = (fun () _ -> ());
        complete = (fun () _ -> ());
      },
      () )

(* the owner of a connection built with the plain callback arguments *)
type callbacks = {
  on_segment_acked : int -> unit;
  on_rtt_sample : Time.t -> unit;
  on_complete : unit -> unit;
}

let callback_hooks =
  {
    acked = (fun c _ n -> c.on_segment_acked n);
    rtt_sample = (fun c rtt -> c.on_rtt_sample rtt);
    complete = (fun c _ -> c.on_complete ());
  }

let notify_acked t n = match t.owner with Owner (h, o) -> h.acked o t n
let notify_rtt t rtt = match t.owner with Owner (h, o) -> h.rtt_sample o rtt
let notify_complete t = match t.owner with Owner (h, o) -> h.complete o t
let snd_una t = t.view.Cc.snd_una
let snd_max t = t.view.Cc.snd_nxt
let split t = not (t.rcv_net == t.net)
let flight t = t.snd_nxt - snd_una t

(* data taken from the source but not yet acknowledged *)
let outstanding t = snd_max t - snd_una t

let take_segment t =
  match t.source with
  | Infinite -> true
  | Limited r ->
    if !r > 0 then begin
      decr r;
      true
    end
    else false

let source_drained t =
  match t.source with Infinite -> false | Limited r -> !r = 0

let teardown t =
  if not t.torn_down then begin
    t.torn_down <- true;
    if not (split t) then begin
      (match t.delack_timer with Some tm -> Sim.cancel tm | None -> ());
      t.delack_timer <- None;
      t.rcv_closed <- true
    end;
    (match t.watchdog with Some tm -> Sim.cancel tm | None -> ());
    t.watchdog <- None;
    Network.unregister_endpoint t.net ~host:t.src ~flow:t.flow
      ~subflow:t.subflow;
    (* a split receiver's registration belongs to another shard's network
       (and domain); it stays registered and late packets dead-letter *)
    if not (split t) then
      Network.unregister_endpoint t.rcv_net ~host:t.dst ~flow:t.flow
        ~subflow:t.subflow
  end

let complete t =
  if Option.is_none t.completed_at then begin
    t.completed_at <- Some (Sim.now t.sim);
    teardown t;
    (match t.instruments with
    | Some i ->
      Tel.Sink.event i.tel ~time_ns:(Sim.now t.sim)
        (Tel.Event.Subflow_complete
           { flow = t.flow; subflow = t.subflow; acked = t.segments_acked })
    | None -> ());
    notify_complete t
  end

let send_data t ~seq ~retx =
  let now = Sim.now t.sim in
  let cwr = (not retx) && Cc.take_cwr t.cc in
  let p =
    Packet.data ~flow:t.flow ~subflow:t.subflow ~src:t.src ~dst:t.dst
      ~path:t.path ~seq ~ect:t.config.ect ~cwr ~ts:now
  in
  if retx then begin
    t.retransmits <- t.retransmits + 1;
    match t.instruments with
    | Some i ->
      Tel.Metric.Counter.inc i.c_retransmits;
      Tel.Sink.event i.tel ~time_ns:now
        (Tel.Event.Retransmit { flow = t.flow; subflow = t.subflow; seq })
    | None -> ()
  end
  else t.segments_sent <- t.segments_sent + 1;
  Node.send t.src_node p

(* RTO handling: one logical watchdog event chases the mutable deadline.
   ACK processing only moves the deadline *later*, which needs no heap
   traffic (the watchdog fires early, notices, and re-schedules itself);
   the deadline moving *earlier* (the RTO estimate shrinking after the
   first samples, or a fresh arm) re-schedules and cancels the superseded
   event, which the event heap's lazy-deletion compaction then reaps —
   so a long transfer keeps O(1) watchdog entries pending instead of one
   per reschedule aging out at full RTO depth. *)
let schedule_watchdog t at =
  (match t.watchdog with Some tm -> Sim.cancel tm | None -> ());
  t.watchdog_time <- at;
  t.watchdog <- Some (Sim.timer_at t.sim at t.wd_fire)

let rec watchdog_fire t =
  t.watchdog <- None;
  if not t.torn_down then begin
    t.watchdog_time <- Time.infinity;
    if outstanding t > 0 then begin
      let now = Sim.now t.sim in
      if Time.compare now t.rto_deadline >= 0 then begin
        t.timeouts <- t.timeouts + 1;
        (match t.instruments with
        | Some i ->
          Tel.Metric.Counter.inc i.c_timeouts;
          Tel.Sink.event i.tel ~time_ns:now
            (Tel.Event.Rto_timeout { flow = t.flow; subflow = t.subflow })
        | None -> ());
        Rtt_estimator.backoff t.est;
        Cc.on_timeout t.cc;
        t.in_recovery <- false;
        t.dupacks <- 0;
        (* go-back-N: resume (re)transmission from the unacknowledged
           point; the send loop resends forward as the window allows *)
        t.snd_nxt <- snd_una t;
        t.rto_deadline <- Time.add now (Rtt_estimator.rto t.est);
        schedule_watchdog t t.rto_deadline;
        send_pending t
      end
      else schedule_watchdog t t.rto_deadline
    end
  end

and ensure_watchdog t =
  if outstanding t > 0 && Time.compare t.rto_deadline t.watchdog_time < 0 then
    schedule_watchdog t t.rto_deadline

and refresh_rto t =
  t.rto_deadline <- Time.add (Sim.now t.sim) (Rtt_estimator.rto t.est);
  ensure_watchdog t

and send_pending t =
  if not t.torn_down then begin
    if Invariant.enabled () then begin
      if not (Invariant.holds (Cc.cwnd t.cc >= 1.)) then
        Invariant.fail ~name:"tcp.cwnd-at-least-one-mss" (fun () ->
            Printf.sprintf "flow %d subflow %d: %s cwnd %.3f < 1 segment"
              t.flow t.subflow (Cc.name t.cc) (Cc.cwnd t.cc));
      if
        not
          (Invariant.holds
             (snd_una t <= t.snd_nxt && t.snd_nxt <= snd_max t))
      then
        Invariant.fail ~name:"tcp.inflight-conservation" (fun () ->
            Printf.sprintf "flow %d subflow %d: una=%d nxt=%d max=%d" t.flow
              t.subflow (snd_una t) t.snd_nxt (snd_max t))
    end;
    let window = Int.max 1 (int_of_float (Cc.cwnd t.cc)) in
    if flight t < window then begin
      (* skip segments the SACK scoreboard says the receiver already has *)
      if not (Seqset.is_empty t.sacked) then
        t.snd_nxt <-
          Int.min (snd_max t) (Seqset.first_absent_from t.snd_nxt t.sacked);
      if t.snd_nxt < snd_max t then begin
        (* retransmission of taken-but-unacked data (post-timeout) *)
        let seq = t.snd_nxt in
        t.snd_nxt <- t.snd_nxt + 1;
        send_data t ~seq ~retx:true;
        send_pending t
      end
      else if take_segment t then begin
        let seq = t.snd_nxt in
        t.snd_nxt <- t.snd_nxt + 1;
        t.view.Cc.snd_nxt <- t.snd_nxt;
        if outstanding t = 1 then refresh_rto t;
        send_data t ~seq ~retx:false;
        send_pending t
      end
      else if source_drained t && outstanding t = 0 then complete t
    end
    else if source_drained t && outstanding t = 0 then complete t
  end

let send_loop = send_pending

(* ----- receiver side ----- *)

(* up to 3 maximal [start, stop) runs of out-of-order segments copied
   into the ack's fixed SACK slots — the reorder buffer already stores
   maximal runs, so this is a prefix walk that allocates nothing *)
let fill_sack t p =
  if t.config.sack && not (Seqset.is_empty t.rcv_ooo) then begin
    let rec put n l =
      match l with
      | (start, stop) :: rest when n > 0 ->
        Packet.add_sack_block p ~start ~stop;
        put (n - 1) rest
      | _ -> ()
    in
    put 3 (Seqset.blocks t.rcv_ooo)
  end

let make_ack t =
  let ece_count =
    match t.config.echo with
    | Classic -> if t.ece_latched then 1 else 0
    | Counted cap ->
      let n =
        match cap with
        | Some limit -> Int.min t.pending_ce limit
        | None -> t.pending_ce
      in
      t.pending_ce <- t.pending_ce - n;
      n
  in
  let p =
    Packet.ack ~flow:t.flow ~subflow:t.subflow ~src:t.dst ~dst:t.src
      ~path:t.path ~seq:t.rcv_nxt ~ece_count ~ts:t.last_ts ()
  in
  fill_sack t p;
  p

let send_ack t =
  (match t.delack_timer with Some tm -> Sim.cancel tm | None -> ());
  t.delack_timer <- None;
  t.delack_pending <- 0;
  Node.send t.dst_node (make_ack t)

let arm_delack t =
  match t.delack_timer with
  | Some _ -> ()
  | None ->
    t.delack_timer <-
      Some
        (Sim.timer_after (Network.sim t.rcv_net) t.config.delack_timeout
           t.delack_fire)

let receiver_rx t (p : Packet.t) =
  (* Echo the timestamp of the most recent arrival: re-ACKs triggered by
     retransmissions then carry a fresh timestamp, so the sender's RTT
     samples are never polluted by pre-loss history (the ambiguity Karn's
     rule exists for). *)
  t.last_ts <- Packet.ts p;
  (match t.config.echo with
  | Classic ->
    if Packet.cwr p then t.ece_latched <- false;
    if Packet.ce p then t.ece_latched <- true
  | Counted _ -> if Packet.ce p then t.pending_ce <- t.pending_ce + 1);
  let seq = Packet.seq p in
  if seq = t.rcv_nxt then begin
    t.rcv_nxt <- t.rcv_nxt + 1;
    (* the reorder buffer keeps maximal runs, so the whole contiguous
       stretch above the new rcv_nxt lifts out in one step; an empty
       buffer (the in-order common case) has nothing to lift *)
    if not (Seqset.is_empty t.rcv_ooo) then begin
      let nxt, rest = Seqset.consume_from t.rcv_nxt t.rcv_ooo in
      t.rcv_nxt <- nxt;
      t.rcv_ooo <- rest
    end;
    t.delack_pending <- t.delack_pending + 1;
    if t.delack_pending >= t.config.delack_segments then send_ack t
    else arm_delack t
  end
  else if seq > t.rcv_nxt then begin
    (* buffer unless the reassembly queue is at its limit; beyond it the
       segment is treated as lost (the sender will retransmit), which
       bounds receiver state under sustained injected loss *)
    if
      (not (Seqset.mem seq t.rcv_ooo))
      && Seqset.cardinal t.rcv_ooo < t.config.reassembly_limit
    then t.rcv_ooo <- Seqset.add seq t.rcv_ooo;
    (* out of order: duplicate ACK right away so the sender can detect the
       loss with fast retransmit *)
    send_ack t
  end
  else
    (* stale retransmission: re-ACK so the sender advances *)
    send_ack t

(* ----- sender ACK processing ----- *)

(* returns true when the ACK's blocks taught us about segments we did not
   know the receiver holds — the signal that a dup ACK is advancing the
   scoreboard during recovery *)
let ingest_sack t (p : Packet.t) =
  (* in-order traffic carries no blocks; skip the scoreboard-cardinal
     walks entirely rather than computing an unchanged count twice *)
  let n = Packet.sack_count p in
  if (not t.config.sack) || n = 0 then false
  else begin
    let before = Seqset.cardinal t.sacked in
    for i = 0 to n - 1 do
      let start = Int.max (Packet.sack_start p i) (snd_una t + 1) in
      let stop = Packet.sack_stop p i in
      if start < stop then t.sacked <- Seqset.add_range ~start ~stop t.sacked
    done;
    Seqset.cardinal t.sacked > before
  end

let prune_scoreboard t = t.sacked <- Seqset.remove_below (snd_una t) t.sacked

(* First unSACKed hole at or above [from] that is safe to declare lost:
   a repair needs SACK evidence *above* the hole (RFC 6675's IsLost
   idea) — the gap between the highest SACKed segment and the send
   frontier is data still in flight, not a hole, and retransmitting it
   would be spurious. *)
let next_hole t ~from =
  let hole = Seqset.first_absent_from from t.sacked in
  if hole < t.recover && hole < t.snd_nxt then Some hole else None

(* IsLost (RFC 6675): only declare a hole lost on SACK information when
   dupack_threshold SACKed segments lie above it — the gap between the
   highest SACKed segment and the send frontier is data still in flight,
   and repairing it would be a spurious retransmission. Cumulative-ACK
   evidence (a partial ACK parking on the hole) needs no such guard.

   Runs on the dup-ACK hot path: [Seqset.blocks] is the scoreboard's own
   interval list (no allocation), and the scan stops as soon as enough
   evidence accumulates instead of folding the whole scoreboard. *)
let hole_is_lost t hole =
  let threshold = t.config.dupack_threshold in
  let rec scan acc = function
    | [] -> false
    | (start, stop) :: rest ->
      if start > hole then begin
        let acc = acc + (stop - start) in
        acc >= threshold || scan acc rest
      end
      else scan acc rest
  in
  scan 0 (Seqset.blocks t.sacked)

let repair_hole t hole =
  if hole > t.rexmit_high then t.rexmit_high <- hole;
  send_data t ~seq:hole ~retx:true

let sender_rx t (p : Packet.t) =
  if not t.torn_down then begin
    let ece_count = Packet.ece_count p in
    if ece_count > 0 then Cc.on_ecn t.cc ~count:ece_count;
    let sack_advanced = ingest_sack t p in
    let ack = Packet.seq p in
    if ack > snd_una t then begin
      if not (Invariant.holds (ack <= snd_max t)) then
        Invariant.fail ~name:"tcp.ack-within-sent" (fun () ->
            Printf.sprintf "flow %d subflow %d: cumulative ACK %d beyond \
                            snd_max %d"
              t.flow t.subflow ack (snd_max t));
      let newly = ack - snd_una t in
      t.view.Cc.snd_una <- ack;
      if ack > t.snd_nxt then t.snd_nxt <- ack;
      t.dupacks <- 0;
      prune_scoreboard t;
      let now = Sim.now t.sim in
      let rtt = Time.sub now (Packet.ts p) in
      if Time.compare rtt Time.zero >= 0 then begin
        Rtt_estimator.sample t.est rtt;
        t.view.Cc.srtt <- Rtt_estimator.srtt t.est;
        t.view.Cc.min_rtt <- Rtt_estimator.min_rtt t.est;
        (match t.instruments with
        | Some i -> Tel.Metric.Histogram.add i.h_rtt (Time.to_us rtt)
        | None -> ());
        notify_rtt t rtt
      end;
      Rtt_estimator.reset_backoff t.est;
      Cc.on_ack t.cc ~ack ~newly_acked:newly ~ce_count:ece_count;
      t.segments_acked <- t.segments_acked + newly;
      notify_acked t newly;
      if t.in_recovery then begin
        if snd_una t >= t.recover then t.in_recovery <- false
        else
          (* NewReno partial ACK: repair the next hole immediately.
             The hole is not necessarily snd_una — with SACK the
             scoreboard may show the receiver already holds it (the
             partial ACK can race a SACKed retransmission), and resending
             a held segment both wastes the repair and re-triggers dup
             ACKs. Skip forward to the first segment actually missing,
             and do not resend a hole this episode already repaired (its
             retransmission is still in flight; if that copy is also
             lost, the RTO backstop recovers it). Without a scoreboard
             there is nothing to consult and the hole is snd_una, as in
             classic NewReno. *)
          if Seqset.is_empty t.sacked then repair_hole t (snd_una t)
          else
            match next_hole t ~from:(snd_una t) with
            | Some hole when hole > t.rexmit_high -> repair_hole t hole
            | Some _ | None -> ()
      end;
      refresh_rto t;
      send_loop t
    end
    else if outstanding t > 0 then begin
      t.dupacks <- t.dupacks + 1;
      if t.dupacks = t.config.dupack_threshold && not t.in_recovery then begin
        t.in_recovery <- true;
        t.recover <- snd_max t;
        t.rexmit_high <- snd_una t - 1;
        t.fast_retransmits <- t.fast_retransmits + 1;
        Cc.on_fast_retransmit t.cc;
        match next_hole t ~from:(snd_una t) with
        | Some hole -> repair_hole t hole
        | None -> repair_hole t (snd_una t)
      end
      else if t.in_recovery && sack_advanced then begin
        (* Dup ACKs during recovery that carry fresh SACK news used to be
           ignored, so a multi-hole loss burst repaired one hole per RTT
           and usually ended in an RTO. Retransmit the next unrepaired
           hole, but pace by a conservative pipe estimate (RFC 6675's
           idea): data in flight that the scoreboard does not cover must
           stay under the window, else the repairs themselves overflow
           the bottleneck and are lost in turn. *)
        let window = Int.max 1 (int_of_float (Cc.cwnd t.cc)) in
        let pipe = flight t - Seqset.cardinal t.sacked in
        if pipe < window then
          match
            next_hole t ~from:(Int.max (snd_una t) (t.rexmit_high + 1))
          with
          | Some hole when hole_is_lost t hole -> repair_hole t hole
          | Some _ | None -> ()
      end
    end
  end

(* the one handler a connection registers: ACKs reach the sender host,
   data the receiver host *)
let rx t p = if Packet.is_ack p then sender_rx t p else receiver_rx t p

let create ~net ?rcv_net ~flow ~subflow ~src ~dst ~path ~cc
    ?(config = default_config) ?(source = Infinite) ?owner ?on_segment_acked
    ?on_rtt_sample ?on_complete () =
  if src = dst then invalid_arg "Tcp.create: src = dst";
  let owner =
    match (owner, on_segment_acked, on_rtt_sample, on_complete) with
    | Some o, None, None, None -> o
    | None, None, None, None -> silent
    | None, _, _, _ ->
      let value = Option.value ~default:nop1 in
      Owner
        ( callback_hooks,
          {
            on_segment_acked = value on_segment_acked;
            on_rtt_sample = value on_rtt_sample;
            on_complete = Option.value on_complete ~default:ignore;
          } )
    | Some _, _, _, _ -> invalid_arg "Tcp.create: owner and callbacks"
  in
  let sim = Network.sim net in
  let rcv_net = match rcv_net with Some n -> n | None -> net in
  let est =
    Rtt_estimator.create ~rto_min:config.rto_min ~rto_max:config.rto_max
      ~granularity:config.rto_granularity ()
  in
  let tel = Sim.telemetry sim in
  let instruments =
    if Tel.Sink.active tel then begin
      let reg = Tel.Sink.registry tel in
      Some
        {
          tel;
          h_rtt =
            Tel.Registry.histogram reg ~subsystem:"transport" ~name:"rtt_us" ();
          c_retransmits =
            Tel.Registry.counter reg ~subsystem:"transport" ~name:"retransmits"
              ();
          c_timeouts =
            Tel.Registry.counter reg ~subsystem:"transport" ~name:"timeouts" ();
        }
    end
    else None
  in
  (* Algorithm 1's snd_nxt means "next new sequence"; after a timeout
     rollback the transmission pointer regresses, but round/cwr
     snapshots must not, so controllers see the high-water mark. *)
  let view =
    Cc.view
      ~telemetry:(Tel.Sink.scope tel ~flow ~subflow)
      ~srtt:(Rtt_estimator.srtt est) ~min_rtt:(Rtt_estimator.min_rtt est)
      ~now:(Sim.clock sim) ()
  in
  let t =
    {
      net;
      sim;
      config;
      flow;
      subflow;
      src;
      dst;
      path;
      src_node = Network.node net src;
      dst_node = Network.node rcv_net dst;
      rcv_net;
      cc = cc view;
      view;
      est;
      source;
      started_at = Sim.now sim;
      snd_nxt = 0;
      dupacks = 0;
      in_recovery = false;
      recover = 0;
      sacked = Seqset.empty;
      rexmit_high = -1;
      rto_deadline = Time.infinity;
      watchdog_time = Time.infinity;
      watchdog = None;
      wd_fire = ignore;
      torn_down = false;
      completed_at = None;
      rcv_nxt = 0;
      rcv_ooo = Seqset.empty;
      pending_ce = 0;
      ece_latched = false;
      delack_pending = 0;
      delack_timer = None;
      delack_fire = ignore;
      rcv_closed = not (rcv_net == net);
      last_ts = Time.zero;
      segments_sent = 0;
      segments_acked = 0;
      retransmits = 0;
      timeouts = 0;
      fast_retransmits = 0;
      owner;
      instruments;
    }
  in
  t.wd_fire <- (fun () -> watchdog_fire t);
  t.delack_fire <-
    (fun () ->
      t.delack_timer <- None;
      if not t.rcv_closed then send_ack t);
  let handler p = rx t p in
  Network.register_endpoint net ~host:src ~flow ~subflow handler;
  (* a split receiver registers on its own shard, in {!open_receiver} *)
  if not (split t) then
    Network.register_endpoint net ~host:dst ~flow ~subflow handler;
  send_loop t;
  t

let stop t = teardown t

let open_receiver t =
  if split t && t.rcv_closed then begin
    t.rcv_closed <- false;
    Network.register_endpoint t.rcv_net ~host:t.dst ~flow:t.flow
      ~subflow:t.subflow (fun p -> rx t p)
  end

let close_receiver t =
  if split t && not t.rcv_closed then begin
    t.rcv_closed <- true;
    (match t.delack_timer with Some tm -> Sim.cancel tm | None -> ());
    t.delack_timer <- None;
    Network.unregister_endpoint t.rcv_net ~host:t.dst ~flow:t.flow
      ~subflow:t.subflow
  end
let flow t = t.flow
let subflow t = t.subflow
let path t = t.path
let cwnd t = Cc.cwnd t.cc
let cc_name t = Cc.name t.cc
let srtt t = Rtt_estimator.srtt t.est
let snd_nxt t = t.snd_nxt
let segments_acked t = t.segments_acked
let segments_sent t = t.segments_sent
let retransmits t = t.retransmits
let timeouts t = t.timeouts
let fast_retransmits t = t.fast_retransmits
let is_complete t = Option.is_some t.completed_at
let started_at t = t.started_at
