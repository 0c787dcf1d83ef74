module Time = Xmp_engine.Time
module Network = Xmp_net.Network
module Tcp = Xmp_transport.Tcp
module Packet = Xmp_net.Packet
module Tel = Xmp_telemetry

type t = {
  net : Network.t;
  rcv_net : Network.t;  (* the receiver shard's network; [net] unless split *)
  flow : int;
  src : int;
  dst : int;
  size_segments : int option;
  config : Tcp.config;
  source : Tcp.source;
  coupling : Coupling.flow;
  mutable subflows : Tcp.t array;  (* built so far, in path order *)
  mutable n_paths : int;
      (* subflows asked for, built or waiting for the start: the flow is
         complete once all of them are built and finished. [stop]
         withdraws those not built yet. *)
  mutable acked : int;
  mutable n_done : int;
  mutable completed_at : Time.t option;
  started_at : Time.t;
  observer : observer;
  owner : Tcp.owner;  (* this flow, as every subflow's owner *)
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
let check_conservation t =
  if not (Invariant.holds (t.n_done <= t.n_paths)) then
    Invariant.fail ~name:"mptcp.subflow-completions" (fun () ->
        Printf.sprintf "flow %d: %d completions for %d subflows" t.flow
          t.n_done t.n_paths);
  let subflows_acked =
    Array.fold_left (fun acc c -> acc + Tcp.segments_acked c) 0 t.subflows
  in
  if not (Invariant.holds (t.acked = subflows_acked)) then
    Invariant.fail ~name:"mptcp.acked-conservation" (fun () ->
        Printf.sprintf "flow %d: flow-level acked %d <> sum of subflows %d"
          t.flow t.acked subflows_acked)

let check_complete t =
  check_conservation t;
  if t.n_done = t.n_paths && Option.is_none t.completed_at
  then begin
    let sim = Network.sim t.net in
    let now = Xmp_engine.Sim.now sim in
    t.completed_at <- Some now;
    let tel = Xmp_engine.Sim.telemetry sim in
    if Tel.Sink.active tel then
      Tel.Sink.event tel ~time_ns:now
        (Tel.Event.Flow_complete { flow = t.flow; acked = t.acked });
    t.observer.on_complete t
  end

(* what every subflow reports to its flow *)
let hooks =
  {
    Tcp.acked =
      (fun t conn n ->
        t.acked <- t.acked + n;
        t.observer.on_subflow_acked (Tcp.subflow conn) n);
    rtt_sample = (fun t rtt -> t.observer.on_rtt_sample rtt);
    complete =
      (fun t _ ->
        t.n_done <- t.n_done + 1;
        check_complete t);
  }

(* A subflow is built when it starts; a zero-size source completes it
   inside [Tcp.create], which [n_paths] already counts. *)
let build t ~path =
  let conn =
    Tcp.create ~net:t.net ~rcv_net:t.rcv_net ~flow:t.flow
      ~subflow:(Array.length t.subflows) ~src:t.src ~dst:t.dst ~path
      ~cc:(Coupling.attach t.coupling) ~config:t.config ~source:t.source
      ~owner:t.owner ()
  in
  t.subflows <- Array.append t.subflows [| conn |];
  check_conservation t;
  conn

let open_receivers t = Array.iter Tcp.open_receiver t.subflows

let create ~net ?(rcv_net = net) ~flow ~src ~dst ~paths ~coupling
    ?(config = Tcp.default_config) ?size_segments ?start_at
    ?(observer = silent) () =
  if paths = [] then invalid_arg "Mptcp_flow.create: paths";
  if src = dst then invalid_arg "Mptcp_flow.create: src = dst";
  let sim = Network.sim net in
  let source =
    match size_segments with
    | None -> Tcp.Infinite
    | Some n ->
      if n < 0 then invalid_arg "Mptcp_flow.create: size_segments";
      Tcp.Limited (ref n)
  in
  let coupling = coupling.Coupling.fresh () in
  let now = Xmp_engine.Sim.now sim in
  let started_at =
    match start_at with None -> now | Some ts -> Time.max now ts
  in
  let rec t =
    {
      net;
      rcv_net;
      flow;
      src;
      dst;
      size_segments;
      config;
      source;
      coupling;
      subflows = [||];
      n_paths = List.length paths;
      acked = 0;
      n_done = 0;
      completed_at = None;
      started_at;
      observer;
      owner = Tcp.Owner (hooks, t);
    }
  in
  if Time.compare started_at now > 0 then
    (* one start event per path, each building its subflow; a split
       receiver opens later, at a barrier (see {!open_receivers}) *)
    List.iter
      (fun path ->
        Xmp_engine.Sim.at sim started_at (fun () ->
            if Array.length t.subflows < t.n_paths then
              ignore (build t ~path)))
      paths
  else begin
    List.iter (fun path -> ignore (build t ~path)) paths;
    open_receivers t
  end;
  t

let add_subflow t ~path =
  if Option.is_some t.completed_at then
    invalid_arg "Mptcp_flow.add_subflow: flow already complete";
  if Array.length t.subflows < t.n_paths then
    invalid_arg "Mptcp_flow.add_subflow: flow not started";
  t.n_paths <- t.n_paths + 1;
  build t ~path

let flow_id t = t.flow
let src t = t.src
let dst t = t.dst
let subflows t = Array.copy t.subflows
let segments_acked t = t.acked
let size_segments t = t.size_segments
let is_complete t = Option.is_some t.completed_at
let started_at t = t.started_at

let goodput_bps_until t until =
  let stop =
    match t.completed_at with
    | Some c -> Time.min c until
    | None -> until
  in
  let dur = Time.to_float_s (Time.sub stop t.started_at) in
  if dur <= 0. then 0.
  else float_of_int (t.acked * Packet.payload_bytes * 8) /. dur

let goodput_bps t =
  match t.completed_at with
  | None -> invalid_arg "Mptcp_flow.goodput_bps: flow not complete"
  | Some c -> goodput_bps_until t c

let stop t =
  t.n_paths <- Array.length t.subflows;
  Array.iter Tcp.stop t.subflows

let close_receivers t = Array.iter Tcp.close_receiver t.subflows
