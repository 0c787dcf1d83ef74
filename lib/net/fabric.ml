(* The one value naming what a run is built on. *)

type t =
  | Fat_tree of int
  | Bridged of { left : Wan.dc_spec; right : Wan.dc_spec; trunks : Wan.trunk list }

let shards = function Fat_tree k -> k | Bridged _ -> 2

let create ~cluster ~disc = function
  | Fat_tree k -> Fat_tree.create ~cluster ~k ~disc ()
  | Bridged { left; right; trunks } -> Wan.create ~cluster ~left ~right ~trunks ~disc ()
