module Cc = Xmp_transport.Cc

type member = { cc : Cc.t; view : Cc.view }
type group = { mutable members : member list (* reverse order *) }

let group () = { members = [] }
let register g ~cc ~view = g.members <- { cc; view } :: g.members
let members g = List.rev g.members
let cwnd m = Cc.cwnd m.cc
let srtt_s m = Xmp_engine.Time.to_float_s m.view.Cc.srtt

let total_cwnd g = List.fold_left (fun acc m -> acc +. cwnd m) 0. g.members

let total_rate g =
  List.fold_left
    (fun acc m ->
      let rtt_s = srtt_s m in
      if rtt_s > 0. then acc +. (cwnd m /. rtt_s) else acc)
    0. g.members

let max_rate g =
  List.fold_left
    (fun acc m ->
      let rtt_s = srtt_s m in
      if rtt_s > 0. then Float.max acc (cwnd m /. rtt_s) else acc)
    0. g.members

let min_srtt g =
  List.fold_left
    (fun acc m ->
      let rtt_s = srtt_s m in
      if rtt_s > 0. then Float.min acc rtt_s else acc)
    Float.max_float g.members

type flow = Flow : ('f -> Cc.factory) * 'f -> flow
type t = { name : string; fresh : unit -> flow }

let attach (Flow (attach, state)) view = attach state view

let uncoupled ~name factory =
  (* nothing is shared between subflows, so every flow shares one *)
  let flow = Flow ((fun () view -> factory view), ()) in
  { name; fresh = (fun () -> flow) }

let custom ~name ~fresh attach =
  { name; fresh = (fun () -> Flow (attach, fresh ())) }

let coupled ~name build =
  custom ~name ~fresh:group (fun g view ->
      let cc = build g view in
      register g ~cc ~view;
      cc)
