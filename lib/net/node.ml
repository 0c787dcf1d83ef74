type kind = Host | Switch

type t = {
  id : int;
  kind : kind;
  name : string;
  mutable ports : Link.t array;
  mutable n_ports : int;
  mutable route : Packet.t -> int;
  mutable local_rx : Packet.t -> unit;
}

let no_route (p : Packet.t) =
  failwith (Format.asprintf "Node: no route installed for %a" Packet.pp p)

let no_local_rx (p : Packet.t) =
  failwith (Format.asprintf "Node: no local handler for %a" Packet.pp p)

let create ~kind ~id ~name =
  {
    id;
    kind;
    name;
    ports = [||];
    n_ports = 0;
    route = no_route;
    local_rx = no_local_rx;
  }

let id t = t.id
let kind t = t.kind
let name t = t.name

(* The cells past [n_ports] are never read. *)
let add_port t link =
  if t.n_ports = Array.length t.ports then
    t.ports <- Xmp_engine.Tables.grow t.ports ~first:4 link;
  t.ports.(t.n_ports) <- link;
  t.n_ports <- t.n_ports + 1;
  t.n_ports - 1

let port t i =
  if i < 0 || i >= t.n_ports then invalid_arg "Node.port";
  t.ports.(i)

let n_ports t = t.n_ports
let set_route t f = t.route <- f
let set_local_rx t f = t.local_rx <- f

let forward t p =
  let port = t.route p in
  Link.send t.ports.(port) p

let receive t (p : Packet.t) =
  match t.kind with
  | Host ->
    if Packet.dst p = t.id then t.local_rx p
    else
      failwith
        (Format.asprintf "Node %s: received transit packet %a" t.name
           Packet.pp p)
  | Switch -> forward t p

let send t p = forward t p
