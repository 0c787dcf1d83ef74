(* [unused-export] fixture: the lib/ user of Widget (aliases, opens)
   and the near misses on Orphan. Never compiled. *)

module W = Gadget.Widget

let via_alias w = W.by_alias w

let via_let_module w =
  let module L = Widget in
  L.by_let_module w

let via_local_open w = Widget.(by_local_open w)

let near_misses (r : Orphan.t) = Orphan.(r.count) + after_scope + Orphan.hidden

open Widget

let via_open w = by_open w
