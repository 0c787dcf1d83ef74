module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Invariant = Xmp_check.Invariant

module Tel = Xmp_telemetry

(* The serialize-complete and deliver events are the two hottest events
   in the simulator (two per packet per hop). Both go on the sim's shared
   FIFO lanes (one per distinct delay: the two serialization times and
   the propagation delay), with handlers registered once per link: the
   serializing packet sits in the [tx] register (only one packet
   serializes at a time), and in-flight packets sit in the [wire] FIFO
   ring (propagation delay is constant per link, so deliveries complete
   in push order and each deliver event pops the head). The wire ring
   starts empty and doubles when full, from 8 slots: a link allocates for
   the packets it has had in flight at once, which on a 40 ms WAN trunk
   is thousands and on most fabric links a handful. *)
type t = {
  id : int;
  name : string;
  rate : Units.rate;
  delay : Time.t;
  disc : Queue_disc.t;
  mutable receiver : Packet.t -> unit;
  mutable drop_filter : (Packet.t -> bool) option;
  mutable busy : bool;
  mutable up : bool;
  mutable bytes_sent : int;
  mutable packets_sent : int;
  mutable tx : Packet.t;  (* the packet currently serializing *)
  mutable wire : Packet.t array;  (* circular FIFO of in-flight packets *)
  mutable wire_head : int;
  mutable wire_len : int;
  lane_data : Sim.lane;  (* serialize-complete of a data packet, *)
  lane_ack : Sim.lane;  (* of an ACK: kinds fix the wire sizes *)
  lane_wire : Sim.lane;  (* deliver; unused on a zero-delay link *)
  mutable on_serialized : Sim.handler;  (* registered in [create] *)
  mutable on_deliver : Sim.handler;
  (* resolved once at creation iff the sim's sink is active *)
  c_tx_packets : Tel.Metric.Counter.t option;
  c_tx_bytes : Tel.Metric.Counter.t option;
}

let no_receiver _ = failwith "Link: receiver not attached"

let wire_push t p =
  if t.wire_len = Array.length t.wire then begin
    t.wire <-
      Packet.grow_ring t.wire ~head:t.wire_head ~len:t.wire_len
        (Int.max 8 (2 * t.wire_len));
    t.wire_head <- 0
  end;
  let tail = t.wire_head + t.wire_len in
  let cap = Array.length t.wire in
  let tail = if tail >= cap then tail - cap else tail in
  t.wire.(tail) <- p;
  t.wire_len <- t.wire_len + 1

let wire_pop t =
  let p = t.wire.(t.wire_head) in
  let cap = Array.length t.wire in
  t.wire_head <- (if t.wire_head + 1 >= cap then 0 else t.wire_head + 1);
  t.wire_len <- t.wire_len - 1;
  p

let rec transmit t (p : Packet.t) =
  t.busy <- true;
  if
    not
      (Invariant.holds
         (Queue_disc.length t.disc <= Queue_disc.capacity t.disc))
  then
    Invariant.fail ~name:"link.queue-within-capacity" (fun () ->
        Printf.sprintf "%s holds %d packets, capacity %d" t.name
          (Queue_disc.length t.disc)
          (Queue_disc.capacity t.disc));
  t.tx <- p;
  Sim.lane_after
    (if Packet.is_ack p then t.lane_ack else t.lane_data)
    t.on_serialized

and serialized t =
  let p = t.tx in
  t.bytes_sent <- t.bytes_sent + Packet.size p;
  t.packets_sent <- t.packets_sent + 1;
  (match t.c_tx_packets with
  | Some c ->
    Tel.Metric.Counter.inc c;
    (match t.c_tx_bytes with
    | Some b -> Tel.Metric.Counter.inc b ~by:(Packet.size p)
    | None -> ())
  | None -> ());
  (* Propagation: the packet is on the wire while the next one
     serializes. Deliver only if the link is still up. A zero-delay link
     (a shard portal's egress) hands the packet over right here instead
     of through a deliver event at the same instant. *)
  if not t.up then Packet.release p
  else if t.delay = Time.zero then t.receiver p
  else begin
    wire_push t p;
    Sim.lane_after t.lane_wire t.on_deliver
  end;
  if Queue_disc.length t.disc > 0 then transmit t (Queue_disc.take t.disc)
  else t.busy <- false

and deliver t =
  let p = wire_pop t in
  if t.up then t.receiver p else Packet.release p

let create ~sim ~id ~name ~rate ~delay ~disc =
  if rate <= 0 then invalid_arg "Link.create: rate";
  let sink = Sim.telemetry sim in
  Queue_disc.set_telemetry disc ~sink ~now:(fun () -> Sim.now sim) ~queue:name;
  let c_tx_packets, c_tx_bytes =
    if Tel.Sink.active sink then begin
      let reg = Tel.Sink.registry sink in
      let labels = Tel.Label.v [ ("link", name) ] in
      ( Some
          (Tel.Registry.counter reg ~labels ~subsystem:"net" ~name:"tx_packets"
             ()),
        Some
          (Tel.Registry.counter reg ~labels ~subsystem:"net" ~name:"tx_bytes"
             ()) )
    end
    else (None, None)
  in
  let lane_data =
    Sim.lane sim (Units.tx_time rate ~bytes:Packet.data_wire_bytes)
  in
  let t =
    {
      id;
      name;
      rate;
      delay;
      disc;
      receiver = no_receiver;
      drop_filter = None;
      busy = false;
      up = true;
      bytes_sent = 0;
      packets_sent = 0;
      tx = Packet.dummy;
      wire = [||];
      wire_head = 0;
      wire_len = 0;
      lane_data;
      lane_ack =
        Sim.lane sim (Units.tx_time rate ~bytes:Packet.ack_wire_bytes);
      lane_wire = (if delay = Time.zero then lane_data else Sim.lane sim delay);
      on_serialized = Sim.no_handler;
      on_deliver = Sim.no_handler;
      c_tx_packets;
      c_tx_bytes;
    }
  in
  t.on_serialized <- Sim.handler sim (fun () -> serialized t);
  t.on_deliver <- Sim.handler sim (fun () -> deliver t);
  t

let set_receiver t f = t.receiver <- f
let set_drop_filter t f = t.drop_filter <- f
let id t = t.id
let name t = t.name
let rate t = t.rate
let delay t = t.delay
let disc t = t.disc
let is_up t = t.up

let send t p =
  if t.up then
    (* The drop filter models loss on the wire's ingress: a killed packet
       never reaches the queue. Accounting/telemetry is the filter's job
       (the fault injector counts and emits Injected_drop). *)
    if match t.drop_filter with Some f -> f p | None -> false then
      Packet.release p
    else if t.busy then ignore (Queue_disc.enqueue t.disc p)
    else begin
      (* An idle link still runs the packet through the discipline so that
         marking/occupancy accounting sees every arrival. *)
      if Queue_disc.enqueue t.disc p then transmit t (Queue_disc.take t.disc)
    end
  else Packet.release p

let set_up t up =
  if t.up && not up then ignore (Queue_disc.clear t.disc);
  t.up <- up

let bytes_sent t = t.bytes_sent
let packets_sent t = t.packets_sent

let utilization t ~duration =
  if duration <= 0 then 0.
  else
    float_of_int (t.bytes_sent * 8)
    /. (float_of_int t.rate *. Time.to_float_s duration)
