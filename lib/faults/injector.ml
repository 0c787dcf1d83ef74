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
module Shard = Xmp_net.Shard
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

(* What a target names on one network: nothing when the network does not
   hold it (on a sharded fabric a named link or host lives in one shard). *)
let links_on net = function
  | Spec.Link name -> Option.to_list (Network.find_link net ~name)
  | Spec.Tag tag -> Network.links_tagged net tag
  | Spec.All_links -> Network.links net

(* A target must name something on at least one of the networks. *)
let check_target nets target =
  if not (Array.exists (fun net -> links_on net target <> []) nets) then
    match target with
    | Spec.Link name ->
      invalid_arg (Printf.sprintf "Fault injector: no link named %S" name)
    | Spec.Tag tag ->
      invalid_arg (Printf.sprintf "Fault injector: no links tagged %S" tag)
    | Spec.All_links -> ()

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

(* The ports of host [host] on [net], or [None] when [net] does not
   hold the node. *)
let host_ports net host =
  Option.map
    (fun node ->
      match Node.kind node with
      | Node.Host -> List.init (Node.n_ports node) (Node.port node)
      | Node.Switch ->
        invalid_arg
          (Printf.sprintf "Fault injector: node %d is not a host" host))
    (Network.find_node net host)

let check_host nets host =
  if not (Array.exists (fun net -> Network.find_node net host <> None) nets)
  then invalid_arg (Printf.sprintf "Fault injector: no node %d" host)

(* Arms on [net] every spec whose target [net] holds, in spec order; a
   spec naming a link, tag or host elsewhere arms nothing here. *)
let arm net (schedule : Spec.t) =
  let sim = Network.sim net in
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
  (* a named link or tag that [net] lacks arms nothing here; [All_links]
     arms even on a network without links *)
  let with_links target f =
    match (target, links_on net target) with
    | (Spec.Link _ | Spec.Tag _), [] -> ()
    | _, links -> f links
  in
  List.iteri
    (fun index spec ->
      match spec with
      | Spec.Link_down { target; at } ->
        with_links target (fun links ->
            Sim.at sim at (fun () ->
                List.iter (fun l -> transition t sim sink l false) links))
      | Spec.Link_up { target; at } ->
        with_links target (fun links ->
            Sim.at sim at (fun () ->
                List.iter (fun l -> transition t sim sink l true) links))
      | Spec.Loss { target; window; model; filter } ->
        with_links target
          (List.iter (fun link ->
               add_filter link
                 (loss_filter t sim sink ~seed:schedule.seed ~index ~link
                    ~window ~model ~filter)))
      | Spec.Blackout { target; window } ->
        with_links target (fun links ->
            let discs = List.map Link.disc links in
            arm_window window
              (fun () ->
                List.iter (fun d -> Queue_disc.set_blackout d true) discs)
              (fun () ->
                List.iter (fun d -> Queue_disc.set_blackout d false) discs))
      | Spec.Host_pause { host; window } ->
        Option.iter
          (fun links ->
            arm_window window
              (fun () ->
                List.iter (fun l -> transition t sim sink l false) links)
              (fun () ->
                List.iter (fun l -> transition t sim sink l true) links))
          (host_ports net host))
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

let install_on nets schedule =
  Spec.validate schedule;
  List.iter
    (function
      | Spec.Link_down { target; _ }
      | Spec.Link_up { target; _ }
      | Spec.Loss { target; _ }
      | Spec.Blackout { target; _ } -> check_target nets target
      | Spec.Host_pause { host; _ } -> check_host nets host)
    schedule.Spec.specs;
  Array.map (fun net -> arm net schedule) nets

let install ~net schedule = (install_on [| net |] schedule).(0)

let install_cluster cluster schedule =
  install_on
    (Array.init (Shard.n_shards cluster) (Shard.net cluster))
    schedule

let injected_drops t = t.injected_drops
let link_downs t = t.link_downs
let link_ups t = t.link_ups
