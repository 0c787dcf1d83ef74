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

(* What every connection of a flow shares and never writes: networks,
   hosts, flow id, config and the sender's telemetry instruments. The
   receiver holds it, and it holds nothing of a sender. *)
type header = {
  net : Network.t;  (* the sender's *)
  rcv_net : Network.t;  (* the receiver's: [net] itself unless split *)
  config : config;
  flow : int;
  src : int;
  dst : int;
  instruments : instruments option;
      (* resolved once, [None] exactly when the sender's sink is
         disabled, so the disabled case stays a single branch per site *)
}

and instruments = {
  tel : Tel.Sink.t;
  h_rtt : Tel.Metric.Histogram.t;
  c_retransmits : Tel.Metric.Counter.t;
  c_timeouts : Tel.Metric.Counter.t;
}

(* The receiver half: what the destination host keeps of a connection.
   No pointer leads from it back to the sender, so once a connection is
   done the sender, its controller and its owner are garbage while a
   split receiver (one on another shard's network) stays registered
   until [close_receiver]. *)
type receiver = {
  hdr : header;
  subflow : int;
  path : int;
  mutable rcv_nxt : int;
  mutable rcv_ooo : Seqset.t;  (* buffered segments above rcv_nxt *)
  mutable ece : int;
      (* ECN echo state: CE marks not yet echoed ([Counted]), or 1 while
         ECE is latched ([Classic]) *)
  mutable delack_pending : int;
  mutable delack_timer : Sim.timer;  (* [Sim.no_timer] when none is armed *)
  mutable delack_fire : unit -> unit;
      (* the delayed-ACK body, allocated once, like [wd_fire] *)
  mutable registered : registration;
  mutable last_ts : Time.t;
}

(* A same-net receiver registers with its sender and closes at the
   teardown; a split one waits for [open_receiver] and is closed by
   [close_receiver]: it outlives the sender half, re-ACKing late
   arrivals until then. *)
and registration = Local | Unopened | Opened | Closed

let receiving r =
  match r.registered with Local | Opened -> true | Unopened | Closed -> false

type phase = Running | Stopped | Completed

(* The sender half. In split mode the receiver lives on another shard:
   it registers on [rcv.hdr.rcv_net], its timers run on that network's
   sim, and the sender reads only the receiver's immutable fields — the
   halves then communicate through packets alone, which keeps a
   cross-shard flow free of cross-domain data races. *)
type t = {
  rcv : receiver;
  cc : Cc.t;
  view : Cc.view;
      (* what the controller reads, kept current here; it also holds the
         sender's [snd_una] and [snd_max] (as [view.snd_nxt]), and the
         RTT estimator's [srtt] and [min_rtt] *)
  (* the rest of the RFC 6298 estimator, whose bounds are [rcv.config]'s;
     a sample has been taken once [view.min_rtt] is finite *)
  mutable rttvar : Time.t;
  mutable backoff : int;  (* power-of-two multiplier exponent *)
  (* Sequence positions: [snd_una] ≤ [snd_nxt] ≤ [snd_max].
     [snd_max] is the highest segment ever taken from the source (+1),
     so also the count of segments sent once; [snd_nxt] is the next
     segment to (re)transmit — after a timeout it is rolled back to
     [snd_una] (go-back-N), so segments in [snd_nxt, snd_max) are
     pending retransmission. *)
  mutable snd_nxt : int;
  mutable dupacks : int;
  mutable recover : int;
      (* [snd_max] when fast recovery began, and -1 outside recovery *)
  mutable sacked : Seqset.t;
      (* scoreboard: segments above snd_una the receiver holds *)
  mutable rexmit_high : int;
      (* highest hole fast recovery has retransmitted; repairs triggered
         by later SACK news start above it so a hole is resent at most
         once per recovery episode *)
  mutable rto_deadline : Time.t;
  mutable watchdog_time : Time.t;  (* fire time of the live watchdog *)
  mutable watchdog : Sim.timer;  (* the live watchdog, or [Sim.no_timer] *)
  mutable wd_fire : unit -> unit;
      (* the watchdog body, allocated once — rescheduling the chased
         deadline then costs no closure *)
  mutable phase : phase;
  mutable losses : losses;
  owner : owner;
}

(* Loss counters. Most connections never lose a segment, so they share
   [no_losses]; a loss replaces the record (a rare allocation). *)
and losses = { retransmits : int; timeouts : int; fast_retransmits : int }

and owner = Owner : 'a hooks * 'a -> owner

and 'a hooks = {
  remaining : 'a -> int;
  set_remaining : 'a -> int -> unit;
  acked : 'a -> t -> int -> unit;
  rtt_sample : 'a -> Time.t -> unit;
  complete : 'a -> t -> unit;
}

let no_losses = { retransmits = 0; timeouts = 0; fast_retransmits = 0 }
let nop1 _ = ()

let silent =
  Owner
    ( {
        remaining = (fun () -> -1);
        set_remaining = (fun () _ -> ());
        acked = (fun () _ _ -> ());
        rtt_sample = (fun () _ -> ());
        complete = (fun () _ -> ());
      },
      () )

(* the owner of a connection built with a source or the plain callback
   arguments *)
type callbacks = {
  source : source;
  on_segment_acked : int -> unit;
  on_rtt_sample : Time.t -> unit;
  on_complete : unit -> unit;
}

let callback_hooks =
  {
    remaining = (fun c -> match c.source with Infinite -> -1 | Limited r -> !r);
    set_remaining =
      (fun c n -> match c.source with Infinite -> () | Limited r -> r := n);
    acked = (fun c _ n -> c.on_segment_acked n);
    rtt_sample = (fun c rtt -> c.on_rtt_sample rtt);
    complete = (fun c _ -> c.on_complete ());
  }

(* the one rule over an owner's count of segments not yet handed out
   (-1: no limit) *)
let take_segment t =
  match t.owner with
  | Owner (h, o) ->
    let n = h.remaining o in
    if n > 0 then begin
      h.set_remaining o (n - 1);
      true
    end
    else n < 0

let source_drained t = match t.owner with Owner (h, o) -> h.remaining o = 0
let notify_acked t n = match t.owner with Owner (h, o) -> h.acked o t n
let notify_rtt t rtt = match t.owner with Owner (h, o) -> h.rtt_sample o rtt
let notify_complete t = match t.owner with Owner (h, o) -> h.complete o t
let sim t = Network.sim t.rcv.hdr.net
let flow t = t.rcv.hdr.flow
let snd_una t = t.view.Cc.snd_una
let snd_max t = t.view.Cc.snd_nxt
let split t = not (t.rcv.hdr.rcv_net == t.rcv.hdr.net)
let in_recovery t = t.recover >= 0
let torn_down t = t.phase <> Running
let flight t = t.snd_nxt - snd_una t

(* data taken from the source but not yet acknowledged *)
let outstanding t = snd_max t - snd_una t

(* RFC 6298 over the estimator's state, which the connection keeps *)
let rto t =
  let c = t.rcv.hdr.config in
  Rtt_estimator.timeout ~rto_min:c.rto_min ~rto_max:c.rto_max
    ~granularity:c.rto_granularity ~srtt:t.view.Cc.srtt ~rttvar:t.rttvar
    ~backoff:t.backoff

let rtt_sample t rtt =
  t.rttvar <- Rtt_estimator.sample t.view ~rttvar:t.rttvar rtt

let cancel_delack r =
  Sim.cancel r.delack_timer;
  r.delack_timer <- Sim.no_timer

let teardown t phase =
  if not (torn_down t) then begin
    t.phase <- phase;
    let r = t.rcv and h = t.rcv.hdr in
    if not (split t) then begin
      cancel_delack r;
      r.registered <- Closed
    end;
    Sim.cancel t.watchdog;
    t.watchdog <- Sim.no_timer;
    Network.unregister_endpoint h.net ~host:h.src ~flow:h.flow
      ~subflow:r.subflow;
    (* a split receiver's registration belongs to another shard's network
       (and domain); it stays registered until [close_receiver] *)
    if not (split t) then
      Network.unregister_endpoint h.rcv_net ~host:h.dst ~flow:h.flow
        ~subflow:r.subflow
  end

let complete t =
  if t.phase = Running then begin
    teardown t Completed;
    (match t.rcv.hdr.instruments with
    | Some i ->
      Tel.Sink.event i.tel ~time_ns:(Sim.now (sim t))
        (Tel.Event.Subflow_complete
           { flow = flow t; subflow = t.rcv.subflow; acked = snd_una t })
    | None -> ());
    notify_complete t
  end

let send_data t ~seq ~retx =
  let now = Sim.now (sim t) in
  let cwr = (not retx) && Cc.take_cwr t.cc in
  let r = t.rcv and h = t.rcv.hdr in
  let p =
    Packet.data ~flow:h.flow ~subflow:r.subflow ~src:h.src ~dst:h.dst
      ~path:r.path ~seq ~ect:h.config.ect ~cwr ~ts:now
  in
  if retx then begin
    t.losses <- { t.losses with retransmits = t.losses.retransmits + 1 };
    match h.instruments with
    | Some i ->
      Tel.Metric.Counter.inc i.c_retransmits;
      Tel.Sink.event i.tel ~time_ns:now
        (Tel.Event.Retransmit { flow = h.flow; subflow = r.subflow; seq })
    | None -> ()
  end;
  Node.send (Network.node h.net h.src) p

(* RTO handling: one logical watchdog event chases the mutable deadline.
   ACK processing only moves the deadline *later*, which needs no heap
   traffic (the watchdog fires early, notices, and re-schedules itself);
   the deadline moving *earlier* (the RTO estimate shrinking after the
   first samples, or a fresh arm) re-schedules and cancels the superseded
   event, which the event heap's lazy-deletion compaction then reaps —
   so a long transfer keeps O(1) watchdog entries pending instead of one
   per reschedule aging out at full RTO depth. *)
let schedule_watchdog t at =
  Sim.cancel t.watchdog;
  t.watchdog_time <- at;
  t.watchdog <- Sim.timer_at (sim t) at t.wd_fire

let rec watchdog_fire t =
  t.watchdog <- Sim.no_timer;
  if not (torn_down t) then begin
    t.watchdog_time <- Time.infinity;
    if outstanding t > 0 then begin
      let now = Sim.now (sim t) in
      if Time.compare now t.rto_deadline >= 0 then begin
        t.losses <- { t.losses with timeouts = t.losses.timeouts + 1 };
        (match t.rcv.hdr.instruments with
        | Some i ->
          Tel.Metric.Counter.inc i.c_timeouts;
          Tel.Sink.event i.tel ~time_ns:now
            (Tel.Event.Rto_timeout
               { flow = flow t; subflow = t.rcv.subflow })
        | None -> ());
        t.backoff <- t.backoff + 1;
        Cc.on_timeout t.cc;
        t.recover <- -1;
        t.dupacks <- 0;
        (* go-back-N: resume (re)transmission from the unacknowledged
           point; the send loop resends forward as the window allows *)
        t.snd_nxt <- snd_una t;
        t.rto_deadline <- Time.add now (rto t);
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
  t.rto_deadline <- Time.add (Sim.now (sim t)) (rto t);
  ensure_watchdog t

and send_pending t =
  if not (torn_down t) then begin
    if not (Invariant.holds ((Cc.window t.cc).Cc.cwnd >= 1.)) then
      Invariant.fail ~name:"tcp.cwnd-at-least-one-mss" (fun () ->
          Printf.sprintf "flow %d subflow %d: %s cwnd %.3f < 1 segment"
            (flow t) t.rcv.subflow (Cc.name t.cc) (Cc.cwnd t.cc));
    if
      not
        (Invariant.holds
           (snd_una t <= t.snd_nxt && t.snd_nxt <= snd_max t))
    then
      Invariant.fail ~name:"tcp.inflight-conservation" (fun () ->
          Printf.sprintf "flow %d subflow %d: una=%d nxt=%d max=%d"
            (flow t) t.rcv.subflow (snd_una t) t.snd_nxt (snd_max t));
    let window = Int.max 1 (int_of_float (Cc.window t.cc).Cc.cwnd) in
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
let fill_sack r p =
  if r.hdr.config.sack && not (Seqset.is_empty r.rcv_ooo) then begin
    let rec put n l =
      match l with
      | (start, stop) :: rest when n > 0 ->
        Packet.add_sack_block p ~start ~stop;
        put (n - 1) rest
      | _ -> ()
    in
    put 3 (Seqset.blocks r.rcv_ooo)
  end

let make_ack r =
  let ece_count =
    match r.hdr.config.echo with
    | Classic -> r.ece
    | Counted cap ->
      let n =
        match cap with Some limit -> Int.min r.ece limit | None -> r.ece
      in
      r.ece <- r.ece - n;
      n
  in
  let h = r.hdr in
  let p =
    Packet.ack ~flow:h.flow ~subflow:r.subflow ~src:h.dst ~dst:h.src
      ~path:r.path ~seq:r.rcv_nxt ~ece_count ~ts:r.last_ts ()
  in
  fill_sack r p;
  p

let send_ack r =
  cancel_delack r;
  r.delack_pending <- 0;
  Node.send (Network.node r.hdr.rcv_net r.hdr.dst) (make_ack r)

let arm_delack r =
  if r.delack_timer == Sim.no_timer then
    r.delack_timer <-
      Sim.timer_after (Network.sim r.hdr.rcv_net) r.hdr.config.delack_timeout
        r.delack_fire

let receiver_rx r (p : Packet.t) =
  (* Echo the timestamp of the most recent arrival: re-ACKs triggered by
     retransmissions then carry a fresh timestamp, so the sender's RTT
     samples are never polluted by pre-loss history (the ambiguity Karn's
     rule exists for). *)
  r.last_ts <- Packet.ts p;
  (match r.hdr.config.echo with
  | Classic ->
    if Packet.cwr p then r.ece <- 0;
    if Packet.ce p then r.ece <- 1
  | Counted _ -> if Packet.ce p then r.ece <- r.ece + 1);
  let seq = Packet.seq p in
  if seq = r.rcv_nxt then begin
    r.rcv_nxt <- r.rcv_nxt + 1;
    (* the reorder buffer keeps maximal runs, so the whole contiguous
       stretch above the new rcv_nxt lifts out in one step; an empty
       buffer (the in-order common case) has nothing to lift *)
    if not (Seqset.is_empty r.rcv_ooo) then begin
      let nxt, rest = Seqset.consume_from r.rcv_nxt r.rcv_ooo in
      r.rcv_nxt <- nxt;
      r.rcv_ooo <- rest
    end;
    r.delack_pending <- r.delack_pending + 1;
    if r.delack_pending >= r.hdr.config.delack_segments then send_ack r
    else arm_delack r
  end
  else if seq > r.rcv_nxt then begin
    (* buffer unless the reassembly queue is at its limit; beyond it the
       segment is treated as lost (the sender will retransmit), which
       bounds receiver state under sustained injected loss *)
    if
      (not (Seqset.mem seq r.rcv_ooo))
      && Seqset.cardinal r.rcv_ooo < r.hdr.config.reassembly_limit
    then r.rcv_ooo <- Seqset.add seq r.rcv_ooo;
    (* out of order: duplicate ACK right away so the sender can detect the
       loss with fast retransmit *)
    send_ack r
  end
  else
    (* stale retransmission: re-ACK so the sender advances *)
    send_ack r

(* ----- sender ACK processing ----- *)

(* returns true when the ACK's blocks taught us about segments we did not
   know the receiver holds — the signal that a dup ACK is advancing the
   scoreboard during recovery *)
let ingest_sack t (p : Packet.t) =
  (* in-order traffic carries no blocks; skip the scoreboard-cardinal
     walks entirely rather than computing an unchanged count twice *)
  let n = Packet.sack_count p in
  if (not t.rcv.hdr.config.sack) || n = 0 then false
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
  let threshold = t.rcv.hdr.config.dupack_threshold in
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
  if not (torn_down t) then begin
    let ece_count = Packet.ece_count p in
    if ece_count > 0 then Cc.on_ecn t.cc ~count:ece_count;
    let sack_advanced = ingest_sack t p in
    let ack = Packet.seq p in
    if ack > snd_una t then begin
      if not (Invariant.holds (ack <= snd_max t)) then
        Invariant.fail ~name:"tcp.ack-within-sent" (fun () ->
            Printf.sprintf "flow %d subflow %d: cumulative ACK %d beyond \
                            snd_max %d"
              (flow t) t.rcv.subflow ack (snd_max t));
      let newly = ack - snd_una t in
      t.view.Cc.snd_una <- ack;
      if ack > t.snd_nxt then t.snd_nxt <- ack;
      t.dupacks <- 0;
      prune_scoreboard t;
      let now = Sim.now (sim t) in
      let rtt = Time.sub now (Packet.ts p) in
      if Time.compare rtt Time.zero >= 0 then begin
        rtt_sample t rtt;
        (match t.rcv.hdr.instruments with
        | Some i -> Tel.Metric.Histogram.add i.h_rtt (Time.to_us rtt)
        | None -> ());
        notify_rtt t rtt
      end;
      t.backoff <- 0;
      Cc.on_ack t.cc ~ack ~newly_acked:newly ~ce_count:ece_count;
      notify_acked t newly;
      if in_recovery t then begin
        if snd_una t >= t.recover then t.recover <- -1
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
      if t.dupacks = t.rcv.hdr.config.dupack_threshold && not (in_recovery t)
      then begin
        t.recover <- snd_max t;
        t.rexmit_high <- snd_una t - 1;
        t.losses <-
          { t.losses with fast_retransmits = t.losses.fast_retransmits + 1 };
        Cc.on_fast_retransmit t.cc;
        match next_hole t ~from:(snd_una t) with
        | Some hole -> repair_hole t hole
        | None -> repair_hole t (snd_una t)
      end
      else if in_recovery t && sack_advanced then begin
        (* Dup ACKs during recovery that carry fresh SACK news used to be
           ignored, so a multi-hole loss burst repaired one hole per RTT
           and usually ended in an RTO. Retransmit the next unrepaired
           hole, but pace by a conservative pipe estimate (RFC 6675's
           idea): data in flight that the scoreboard does not cover must
           stay under the window, else the repairs themselves overflow
           the bottleneck and are lost in turn. *)
        let window = Int.max 1 (int_of_float (Cc.window t.cc).Cc.cwnd) in
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

let header ~net ?(rcv_net = net) ~flow ~src ~dst ?(config = default_config)
    () =
  if src = dst then invalid_arg "Tcp.header: src = dst";
  let tel = Sim.telemetry (Network.sim net) in
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
  { net; rcv_net; config; flow; src; dst; instruments }

let connect hdr ~subflow ~path ~cc ~owner =
  let { net; rcv_net; flow; src; dst; _ } = hdr in
  let sim = Network.sim net in
  (* Algorithm 1's snd_nxt means "next new sequence"; after a timeout
     rollback the transmission pointer regresses, but round/cwr
     snapshots must not, so controllers see the high-water mark. *)
  let view =
    Cc.view
      ~telemetry:(Tel.Sink.scope (Sim.telemetry sim) ~flow ~subflow)
      ~srtt:Rtt_estimator.initial_srtt ~min_rtt:Time.infinity
      ~now:(Sim.clock sim) ()
  in
  let rcv =
    {
      hdr;
      subflow;
      path;
      rcv_nxt = 0;
      rcv_ooo = Seqset.empty;
      ece = 0;
      delack_pending = 0;
      delack_timer = Sim.no_timer;
      delack_fire = ignore;
      registered = (if rcv_net == net then Local else Unopened);
      last_ts = Time.zero;
    }
  in
  let t =
    {
      rcv;
      cc = cc view;
      view;
      rttvar = Rtt_estimator.initial_rttvar;
      backoff = 0;
      snd_nxt = 0;
      dupacks = 0;
      recover = -1;
      sacked = Seqset.empty;
      rexmit_high = -1;
      rto_deadline = Time.infinity;
      watchdog_time = Time.infinity;
      watchdog = Sim.no_timer;
      wd_fire = ignore;
      phase = Running;
      losses = no_losses;
      owner;
    }
  in
  rcv.delack_fire <-
    (fun () ->
      rcv.delack_timer <- Sim.no_timer;
      if receiving rcv then send_ack rcv);
  t.wd_fire <- (fun () -> watchdog_fire t);
  (* ACKs reach the sender host, data the receiver host; a split receiver
     registers on its own shard, in {!open_receiver} *)
  Network.register_endpoint net ~host:src ~flow ~subflow (fun p ->
      sender_rx t p);
  if not (split t) then
    Network.register_endpoint net ~host:dst ~flow ~subflow (fun p ->
        receiver_rx rcv p);
  t

let start = send_loop

let create ~net ?rcv_net ~flow ~subflow ~src ~dst ~path ~cc ?config
    ?(source = Infinite) ?on_segment_acked ?on_rtt_sample ?on_complete () =
  let owner =
    match (source, on_segment_acked, on_rtt_sample, on_complete) with
    | Infinite, None, None, None -> silent
    | _ ->
      let value = Option.value ~default:nop1 in
      Owner
        ( callback_hooks,
          {
            source;
            on_segment_acked = value on_segment_acked;
            on_rtt_sample = value on_rtt_sample;
            on_complete = Option.value on_complete ~default:ignore;
          } )
  in
  if src = dst then invalid_arg "Tcp.create: src = dst";
  (match source with
  | Limited r when !r < 0 -> invalid_arg "Tcp.create: negative source"
  | Infinite | Limited _ -> ());
  let t =
    connect
      (header ~net ?rcv_net ~flow ~src ~dst ?config ())
      ~subflow ~path ~cc ~owner
  in
  start t;
  t

let stop t = teardown t Stopped
let receiver t = t.rcv

let open_receiver r =
  if r.registered = Unopened then begin
    r.registered <- Opened;
    let h = r.hdr in
    Network.register_endpoint h.rcv_net ~host:h.dst ~flow:h.flow
      ~subflow:r.subflow (fun p -> receiver_rx r p)
  end

let close_receiver r =
  if r.registered = Opened then begin
    r.registered <- Closed;
    cancel_delack r;
    let h = r.hdr in
    Network.unregister_endpoint h.rcv_net ~host:h.dst ~flow:h.flow
      ~subflow:r.subflow
  end

let owner t = t.owner
let subflow t = t.rcv.subflow
let cwnd t = Cc.cwnd t.cc
let cc_name t = Cc.name t.cc
let srtt t = t.view.Cc.srtt
let snd_nxt t = t.snd_nxt
let segments_acked = snd_una
let retransmits t = t.losses.retransmits
let timeouts t = t.losses.timeouts
let fast_retransmits t = t.losses.fast_retransmits
let is_complete t = t.phase = Completed
