module Cc = Xmp_transport.Cc

(* the members' controllers, in an array grown by one per subflow: a
   flow's few members then cost a word each; each reads its RTT off its
   own view *)
type group = { mutable members : Cc.t array (* registration order *) }

let group () = { members = [||] }
let register g cc = g.members <- Array.append g.members [| cc |]
let members g = Array.to_list g.members
let srtt_s m = Xmp_engine.Time.to_float_s (Cc.view_of m).Cc.srtt

(* The folds below run newest member first ([Array.fold_right]): the
   order these float sums have always been taken in, which must hold
   for the results to, float addition not being associative. They read
   each window in place, as [Cc.cwnd] would box it. *)
let total_cwnd g =
  Array.fold_right (fun m acc -> acc +. (Cc.window m).Cc.cwnd) g.members 0.

let total_rate g =
  Array.fold_right
    (fun m acc ->
      let rtt_s = srtt_s m in
      if rtt_s > 0. then acc +. ((Cc.window m).Cc.cwnd /. rtt_s) else acc)
    g.members 0.

let max_rate g =
  Array.fold_right
    (fun m acc ->
      let rtt_s = srtt_s m in
      if rtt_s > 0. then Float.max acc ((Cc.window m).Cc.cwnd /. rtt_s)
      else acc)
    g.members 0.

let min_srtt g =
  Array.fold_right
    (fun m acc ->
      let rtt_s = srtt_s m in
      if rtt_s > 0. then Float.min acc rtt_s else acc)
    g.members Float.max_float

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
      register g cc;
      cc)
