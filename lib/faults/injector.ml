(* Arms a declarative Fault_spec schedule against a concrete network.

   The schedule is pure data, passed in by whoever builds the run;
   installing resolves every target to live links, arms
   simulator events for the timed transitions, and attaches drop filters
   for the loss models. Installation is eager so an unknown link or tag
   name fails fast at setup instead of silently injecting nothing.

   Determinism: each Loss spec draws from its own [Random.State] seeded
   with (schedule seed, spec index, link id) — independent of the sim's
   main RNG and of traffic interleaving across worker processes, so a
   given (schedule, topology) pair kills exactly the same packets in
   every run. *)

module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Spec = Xmp_engine.Fault_spec
module Network = Xmp_net.Network
module Link = Xmp_net.Link
module Node = Xmp_net.Node
module Packet = Xmp_net.Packet
module Queue_disc = Xmp_net.Queue_disc
module Tel = Xmp_telemetry

type t = {
  mutable injected_drops : int;
  mutable link_downs : int;
  mutable link_ups : int;
}

let resolve_links net target =
  match target with
  | Spec.Link name -> (
    match Network.find_link net ~name with
    | Some l -> [ l ]
    | None ->
      invalid_arg (Printf.sprintf "Fault injector: no link named %S" name))
  | Spec.Tag tag -> (
    match Network.links_tagged net tag with
    | [] -> invalid_arg (Printf.sprintf "Fault injector: no links tagged %S" tag)
    | ls -> ls)
  | Spec.All_links -> Network.links net

let transition t sim sink link up =
  Link.set_up link up;
  if up then t.link_ups <- t.link_ups + 1
  else t.link_downs <- t.link_downs + 1;
  if Tel.Sink.active sink then
    Tel.Sink.event sink ~time_ns:(Sim.now sim)
      (if up then Tel.Event.Link_up { link = Link.name link }
       else Tel.Event.Link_down { link = Link.name link })

let in_window sim (w : Spec.window) =
  let now = Sim.now sim in
  Time.compare now w.from_ns >= 0 && Time.compare now w.until_ns < 0

let matches filter (p : Packet.t) =
  match (filter, Packet.kind p) with
  | Spec.Any_packet, _ -> true
  | Spec.Data_only, Packet.Data | Spec.Ack_only, Packet.Ack -> true
  | Spec.Data_only, Packet.Ack | Spec.Ack_only, Packet.Data -> false

(* One loss process per (spec, link): own RNG, own Gilbert-Elliott channel
   state. The channel advances once per matching in-window packet. *)
let loss_filter t sim sink ~seed ~index ~link ~window ~model ~filter =
  let rng = Random.State.make [| seed; index; Link.id link; 0xFA17 |] in
  let bad = ref false in
  fun (p : Packet.t) ->
    if in_window sim window && matches filter p then begin
      let dropped =
        match model with
        | Spec.Bernoulli prob -> Random.State.float rng 1. < prob
        | Spec.Gilbert_elliott g ->
          let flip = if !bad then g.exit_bad else g.enter_bad in
          if Random.State.float rng 1. < flip then bad := not !bad;
          let loss = if !bad then g.loss_bad else g.loss_good in
          loss > 0. && Random.State.float rng 1. < loss
      in
      if dropped then begin
        t.injected_drops <- t.injected_drops + 1;
        if Tel.Sink.active sink then
          Tel.Sink.event sink ~time_ns:(Sim.now sim)
            (Tel.Event.Injected_drop
               {
                 link = Link.name link;
                 flow = Packet.flow p;
                 subflow = Packet.subflow p;
                 seq = Packet.seq p;
               })
      end;
      dropped
    end
    else false

let pause_links net host =
  if host >= Network.n_nodes net then
    invalid_arg (Printf.sprintf "Fault injector: no node %d" host);
  let node = Network.node net host in
  (match Node.kind node with
  | Node.Host -> ()
  | Node.Switch ->
    invalid_arg (Printf.sprintf "Fault injector: node %d is not a host" host));
  List.init (Node.n_ports node) (Node.port node)

let install ~net schedule =
  let sim = Network.sim net in
  Spec.validate schedule;
  let t = { injected_drops = 0; link_downs = 0; link_ups = 0 } in
  let sink = Sim.telemetry sim in
  (* accumulate loss filters per link so several specs can overlay *)
  let filters : (Link.t * (Packet.t -> bool) list ref) list ref = ref [] in
  let add_filter link f =
    match
      List.find_opt (fun (l, _) -> Link.id l = Link.id link) !filters
    with
    | Some (_, fns) -> fns := !fns @ [ f ]
    | None -> filters := !filters @ [ (link, ref [ f ]) ]
  in
  let arm_window (w : Spec.window) on off =
    Sim.at sim w.from_ns on;
    if Time.compare w.until_ns Time.infinity < 0 then Sim.at sim w.until_ns off
  in
  List.iteri
    (fun index spec ->
      match spec with
      | Spec.Link_down { target; at } ->
        let links = resolve_links net target in
        Sim.at sim at (fun () ->
            List.iter (fun l -> transition t sim sink l false) links)
      | Spec.Link_up { target; at } ->
        let links = resolve_links net target in
        Sim.at sim at (fun () ->
            List.iter (fun l -> transition t sim sink l true) links)
      | Spec.Loss { target; window; model; filter } ->
        List.iter
          (fun link ->
            add_filter link
              (loss_filter t sim sink ~seed:schedule.seed ~index ~link
                 ~window ~model ~filter))
          (resolve_links net target)
      | Spec.Blackout { target; window } ->
        let discs = List.map Link.disc (resolve_links net target) in
        arm_window window
          (fun () -> List.iter (fun d -> Queue_disc.set_blackout d true) discs)
          (fun () ->
            List.iter (fun d -> Queue_disc.set_blackout d false) discs)
      | Spec.Host_pause { host; window } ->
        let links = pause_links net host in
        arm_window window
          (fun () ->
            List.iter (fun l -> transition t sim sink l false) links)
          (fun () -> List.iter (fun l -> transition t sim sink l true) links))
    schedule.specs;
  List.iter
    (fun (link, fns) ->
      let fns = !fns in
      (* no short-circuit: every loss process sees every packet so its
         channel state advances identically whatever the others decide *)
      Link.set_drop_filter link
        (Some
           (fun p -> List.fold_left (fun acc f -> f p || acc) false fns)))
    !filters;
  t

let injected_drops t = t.injected_drops
let link_downs t = t.link_downs
let link_ups t = t.link_ups
