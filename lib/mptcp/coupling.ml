module Cc = Xmp_transport.Cc

type member = {
  cwnd : unit -> float;
  srtt_s : unit -> float;
  in_slow_start : unit -> bool;
}

type group = { mutable members : member list (* reverse order *) }

let group () = { members = [] }
let register g m = g.members <- m :: g.members
let members g = List.rev g.members

let member_of (view : Cc.view) (cc : Cc.t) =
  {
    cwnd = cc.Cc.cwnd;
    srtt_s = (fun () -> Xmp_engine.Time.to_float_s (view.Cc.srtt ()));
    in_slow_start = cc.Cc.in_slow_start;
  }

let total_cwnd g =
  List.fold_left (fun acc m -> acc +. m.cwnd ()) 0. g.members

let total_rate g =
  List.fold_left
    (fun acc m ->
      let rtt_s = m.srtt_s () in
      if rtt_s > 0. then acc +. (m.cwnd () /. rtt_s) else acc)
    0. g.members

let max_rate g =
  List.fold_left
    (fun acc m ->
      let rtt_s = m.srtt_s () in
      if rtt_s > 0. then Float.max acc (m.cwnd () /. rtt_s) else acc)
    0. g.members

let min_srtt g =
  List.fold_left
    (fun acc m ->
      let rtt_s = m.srtt_s () in
      if rtt_s > 0. then Float.min acc rtt_s else acc)
    Float.max_float g.members

type t = { name : string; fresh : unit -> int -> Cc.factory }

let uncoupled ~name factory =
  { name; fresh = (fun () _index -> factory) }

let coupled ~name build =
  let fresh () =
    let g = group () in
    let factory = build g in
    fun _index view ->
      let cc = factory view in
      register g (member_of view cc);
      { cc with Cc.name }
  in
  { name; fresh }
