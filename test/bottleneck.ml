(* Bottleneck [j] (0-based) of a [Testbed], looked up the way experiments
   and fault schedules address it: by its link name. *)

module Network = Xmp_net.Network
module Link = Xmp_net.Link

let link net name =
  match Network.find_link net ~name with
  | Some l -> l
  | None -> Alcotest.failf "no link named %s" name

let fwd net j = link net (Printf.sprintf "IN%d->OUT%d" (j + 1) (j + 1))
let rev net j = link net (Printf.sprintf "OUT%d->IN%d" (j + 1) (j + 1))

(* Both directions, forward first (Figure 7's "L3 is closed" event). *)
let set_up net j up =
  Link.set_up (fwd net j) up;
  Link.set_up (rev net j) up
