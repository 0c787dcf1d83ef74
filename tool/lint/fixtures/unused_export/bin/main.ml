(* [unused-export] fixture: a user in a second directory. Never
   compiled. *)

let () =
  let w = Gadget.Widget.make () in
  ignore (Gadget.Widget.by_path w + Gadget.Widget.Part.by_submodule)
