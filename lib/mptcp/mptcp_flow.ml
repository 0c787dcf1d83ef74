module Time = Xmp_engine.Time
module Network = Xmp_net.Network
module Tcp = Xmp_transport.Tcp
module Packet = Xmp_net.Packet
module Tel = Xmp_telemetry

type t = {
  hdr : Tcp.header;  (* networks, hosts, id and config, for every subflow *)
  mutable remaining : int;
      (* segments no subflow has taken yet, the subflows' shared source;
         -1 for a bulk flow. The size is this plus what they took. *)
  coupling : Coupling.flow;
  mutable subflows : Tcp.t array;
      (* built so far, in path order: the first [n_built] slots; sized
         for every path at the first build *)
  mutable n_built : int;
  mutable n_paths : int;
      (* subflows asked for, built or waiting for the start: the flow is
         complete once all of them are built and finished. [stop]
         withdraws those not built yet. *)
  mutable acked : int;
  mutable n_done : int;
  mutable completed_at : Time.t;  (* [Time.infinity] until complete *)
  started_at : Time.t;
  observer : observer;
}

and observer = {
  on_complete : t -> unit;
  on_subflow_acked : int -> int -> unit;
  on_rtt_sample : Time.t -> unit;
}

let silent =
  {
    on_complete = (fun _ -> ());
    on_subflow_acked = (fun _ _ -> ());
    on_rtt_sample = (fun _ -> ());
  }

module Invariant = Xmp_check.Invariant

(* Per-subflow accounting must stay conserved: the flow-level ack counter
   is fed exclusively by subflow callbacks, so it always equals the sum of
   the subflows' own counters, and no subflow can complete twice. *)
(* the sum of [f] over the built subflows, the first [n_built] slots *)
let sum_built t f =
  let sum = ref 0 in
  for i = 0 to t.n_built - 1 do
    sum := !sum + f t.subflows.(i)
  done;
  !sum

let check_conservation t =
  if not (Invariant.holds (t.n_done <= t.n_paths)) then
    Invariant.fail ~name:"mptcp.subflow-completions" (fun () ->
        Printf.sprintf "flow %d: %d completions for %d subflows" t.hdr.flow
          t.n_done t.n_paths);
  let subflows_acked = sum_built t Tcp.segments_acked in
  if not (Invariant.holds (t.acked = subflows_acked)) then
    Invariant.fail ~name:"mptcp.acked-conservation" (fun () ->
        Printf.sprintf "flow %d: flow-level acked %d <> sum of subflows %d"
          t.hdr.flow t.acked subflows_acked)

let is_complete t = not (Time.is_infinite t.completed_at)

let check_complete t =
  check_conservation t;
  if t.n_done = t.n_paths && not (is_complete t) then begin
    let sim = Network.sim t.hdr.net in
    let now = Xmp_engine.Sim.now sim in
    t.completed_at <- now;
    let tel = Xmp_engine.Sim.telemetry sim in
    if Tel.Sink.active tel then
      Tel.Sink.event tel ~time_ns:now
        (Tel.Event.Flow_complete { flow = t.hdr.flow; acked = t.acked });
    t.observer.on_complete t
  end

(* what every subflow takes from and reports to its flow *)
let hooks =
  {
    Tcp.remaining = (fun t -> t.remaining);
    set_remaining = (fun t n -> t.remaining <- n);
    acked =
      (fun t conn n ->
        t.acked <- t.acked + n;
        t.observer.on_subflow_acked (Tcp.subflow conn) n);
    rtt_sample = (fun t rtt -> t.observer.on_rtt_sample rtt);
    complete =
      (fun t _ ->
        t.n_done <- t.n_done + 1;
        check_complete t);
  }

(* A subflow is built when it starts. It is filed before it sends: a
   zero-size source completes it inside [Tcp.start], and the flow's
   completion then sees every subflow ([receivers] among them). *)
let build t ~path =
  let i = t.n_built in
  let conn =
    Tcp.connect t.hdr ~subflow:i ~path ~cc:(Coupling.attach t.coupling)
      ~owner:
        (* this flow, as every subflow's owner: made at the first build,
           and shared by the later ones *)
        (if i = 0 then Tcp.Owner (hooks, t) else Tcp.owner t.subflows.(0))
  in
  if i = 0 then t.subflows <- Array.make t.n_paths conn
  else if i = Array.length t.subflows then
    (* a subflow added after the start *)
    t.subflows <- Array.append t.subflows [| conn |]
  else t.subflows.(i) <- conn;
  t.n_built <- i + 1;
  check_conservation t;
  Tcp.start conn;
  conn

let split t = not (t.hdr.rcv_net == t.hdr.net)

let receivers t =
  if split t then
    List.init t.n_built (fun i -> Tcp.receiver t.subflows.(i))
  else []

let open_receivers t = List.iter Tcp.open_receiver (receivers t)

let create ~net ?(rcv_net = net) ~flow ~src ~dst ~paths ~coupling
    ?(config = Tcp.default_config) ?size_segments ?start_at
    ?(observer = silent) () =
  if paths = [] then invalid_arg "Mptcp_flow.create: paths";
  if src = dst then invalid_arg "Mptcp_flow.create: src = dst";
  let sim = Network.sim net in
  let remaining =
    match size_segments with
    | None -> -1
    | Some n ->
      if n < 0 then invalid_arg "Mptcp_flow.create: size_segments";
      n
  in
  let coupling = coupling.Coupling.fresh () in
  let now = Xmp_engine.Sim.now sim in
  let started_at =
    match start_at with None -> now | Some ts -> Time.max now ts
  in
  let t =
    {
      hdr = Tcp.header ~net ~rcv_net ~flow ~src ~dst ~config ();
      remaining;
      coupling;
      subflows = [||];
      n_built = 0;
      n_paths = List.length paths;
      acked = 0;
      n_done = 0;
      completed_at = Time.infinity;
      started_at;
      observer;
    }
  in
  if Time.compare started_at now > 0 then
    (* one start event per path, each building its subflow; a split
       receiver opens later, at a barrier (see {!open_receivers}) *)
    List.iter
      (fun path ->
        Xmp_engine.Sim.at sim started_at (fun () ->
            if t.n_built < t.n_paths then ignore (build t ~path)))
      paths
  else begin
    List.iter (fun path -> ignore (build t ~path)) paths;
    open_receivers t
  end;
  t

let add_subflow t ~path =
  if is_complete t then
    invalid_arg "Mptcp_flow.add_subflow: flow already complete";
  if t.n_built < t.n_paths then
    invalid_arg "Mptcp_flow.add_subflow: flow not started";
  t.n_paths <- t.n_paths + 1;
  build t ~path

let flow_id t = t.hdr.flow
let src t = t.hdr.src
let dst t = t.hdr.dst
let subflows t = Array.sub t.subflows 0 t.n_built
let segments_acked t = t.acked

let size_segments t =
  if t.remaining < 0 then None
  else Some (t.remaining + sum_built t Tcp.snd_max)

let started_at t = t.started_at

let goodput_bps_until t until =
  let stop = Time.min t.completed_at until in
  let dur = Time.to_float_s (Time.sub stop t.started_at) in
  if dur <= 0. then 0.
  else float_of_int (t.acked * Packet.payload_bytes * 8) /. dur

let goodput_bps t =
  if not (is_complete t) then
    invalid_arg "Mptcp_flow.goodput_bps: flow not complete";
  goodput_bps_until t t.completed_at

let stop t =
  t.n_paths <- t.n_built;
  for i = 0 to t.n_built - 1 do
    Tcp.stop t.subflows.(i)
  done
