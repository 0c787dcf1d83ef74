module Sim = Xmp_engine.Sim

(* Endpoint dispatch is the per-packet hot path: every delivered packet
   looks up its (dst, flow, subflow) handler. A tuple-keyed Hashtbl hashes
   and compares the tuple structurally per packet; packing the three
   components into one immediate int (dst:20 | flow:30 | subflow:12 bits,
   62 bits total — injective within the validated ranges) makes the key
   hash a multiply, a shift and an xor, and each bucket entry probed one
   integer compare. How many entries a probe meets depends on [hash]
   spreading keys over the buckets; see [Endpoints]. *)
module Endpoint_key = struct
  let subflow_bits = 12
  let flow_bits = 30
  let dst_bits = 20
  let max_subflow = (1 lsl subflow_bits) - 1
  let max_flow = (1 lsl flow_bits) - 1
  let max_dst = (1 lsl dst_bits) - 1

  let pack ~host ~flow ~subflow =
    (((host lsl flow_bits) lor flow) lsl subflow_bits) lor subflow

  let validate ~host ~flow ~subflow =
    if
      host < 0 || host > max_dst || flow < 0 || flow > max_flow
      || subflow < 0 || subflow > max_subflow
    then
      invalid_arg
        (Printf.sprintf
           "Network.register_endpoint: (%d, %d, %d) outside packed key \
            ranges (dst<=%d, flow<=%d, subflow<=%d)"
           host flow subflow max_dst max_flow max_subflow)
end

module Endpoints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Stdlib [Hashtbl] takes the bucket from the hash's LOW bits. A bare
     multiply leaves bit i of the product a function of key bits 0..i
     only, so the low bits would see nothing but the 12-bit subflow index
     and every endpoint with the same subflow number would share one
     chain, making delivery, registration and removal linear in the
     number of live flows. Folding the high half of the product back
     down makes hash bit i depend on key bits 0..i+31, so the flow index
     reaches every bucket bit and the host index the upper ones. *)
  let hash k =
    let h = k * 0x331A7B2F63C1 in
    (h lxor (h lsr 31)) land max_int
end)

type t = {
  sim : Sim.t;
  mutable nodes : Node.t list;  (* reverse creation order *)
  mutable node_arr : Node.t option array;  (* indexed by node id *)
  mutable n_nodes : int;
  mutable next_id : int;
  mutable links_rev : Link.t list;
  mutable next_link : int;
  tags : (int, string) Hashtbl.t;  (* link id -> tag *)
  endpoints : (Packet.t -> unit) Endpoints.t;  (* packed (dst, flow, subflow) *)
  mutable dead : int;
}

let create sim =
  {
    sim;
    nodes = [];
    node_arr = [||];
    n_nodes = 0;
    next_id = 0;
    links_rev = [];
    next_link = 0;
    (* both grow on demand; 16 buckets is the Hashtbl floor *)
    tags = Hashtbl.create 16;
    endpoints = Endpoints.create 16;
    dead = 0;
  }

let sim t = t.sim

(* Endpoint dispatch consumes the packet: whether a handler ran or the
   packet dead-lettered, the record returns to the pool when the handler
   is done with it. Handlers copy what they keep (the transport extracts
   scalars; traces format eagerly) — nothing downstream retains the
   record. The header word IS the endpoint key, and the lookup goes
   through [find] + [Not_found] so a delivery allocates nothing. *)
let dispatch t (p : Packet.t) =
  (match Endpoints.find t.endpoints (Packet.endpoint_key p) with
  | handler -> handler p
  | exception Not_found -> t.dead <- t.dead + 1);
  Packet.release p

let add_node_opt t ~id ~kind ~name =
  let id =
    match id with
    | None -> t.next_id
    | Some i ->
      if i < 0 || i > Endpoint_key.max_dst then
        invalid_arg "Network.add_node: id outside packed range";
      if i < Array.length t.node_arr && Option.is_some t.node_arr.(i) then
        invalid_arg (Printf.sprintf "Network.add_node: id %d taken" i);
      i
  in
  let node = Node.create ~kind ~id ~name in
  if id >= Array.length t.node_arr then begin
    let cap = Int.max 16 (Int.max (2 * Array.length t.node_arr) (id + 1)) in
    let arr = Array.make cap None in
    Array.blit t.node_arr 0 arr 0 (Array.length t.node_arr);
    t.node_arr <- arr
  end;
  t.node_arr.(id) <- Some node;
  t.n_nodes <- t.n_nodes + 1;
  if id >= t.next_id then t.next_id <- id + 1;
  t.nodes <- node :: t.nodes;
  (match kind with
  | Node.Host -> Node.set_local_rx node (dispatch t)
  | Node.Switch -> ());
  node

let add_host t ~name = add_node_opt t ~id:None ~kind:Node.Host ~name
let add_switch t ~name = add_node_opt t ~id:None ~kind:Node.Switch ~name

(* Sharded topologies place nodes at explicit ids so host addresses stay
   globally meaningful across shard networks (a packet's [dst] must name
   the same host in whichever shard decodes it). *)
let add_host_at t ~id ~name = add_node_opt t ~id:(Some id) ~kind:Node.Host ~name

let add_switch_at t ~id ~name =
  add_node_opt t ~id:(Some id) ~kind:Node.Switch ~name

let find_node t i =
  if i < 0 || i >= Array.length t.node_arr then None else t.node_arr.(i)

let node t i =
  match find_node t i with Some n -> n | None -> invalid_arg "Network.node"

let n_nodes t = t.n_nodes

(* An egress link delivers to an arbitrary callback instead of a peer
   node's receive — the seam shard portals use to carry packets across a
   domain boundary. The link still gets the next port number on [src],
   so topology builders can mix local links and portals freely as long
   as they keep their construction order. *)
let add_egress t ?tag ~name ~rate ~delay ~disc src receiver =
  let id = t.next_link in
  t.next_link <- id + 1;
  let link = Link.create ~sim:t.sim ~id ~name ~rate ~delay ~disc:(disc ()) in
  Link.set_receiver link receiver;
  ignore (Node.add_port src link);
  t.links_rev <- link :: t.links_rev;
  (match tag with Some tag -> Hashtbl.replace t.tags id tag | None -> ());
  link

let make_link t ?tag ~rate ~delay ~disc src dst =
  let name = String.concat "->" [ Node.name src; Node.name dst ] in
  add_egress t ?tag ~name ~rate ~delay ~disc src (fun p -> Node.receive dst p)

let connect t ?tag ~rate ~delay ~disc a b =
  let fwd = make_link t ?tag ~rate ~delay ~disc a b in
  let rev = make_link t ?tag ~rate ~delay ~disc b a in
  (fwd, rev)

let links t = List.rev t.links_rev

let links_tagged t tag =
  List.filter
    (fun l -> Hashtbl.find_opt t.tags (Link.id l) = Some tag)
    (links t)

let tag_of_link t l = Hashtbl.find_opt t.tags (Link.id l)

let find_link t ~name =
  List.find_opt (fun l -> String.equal (Link.name l) name) (links t)

let register_endpoint t ~host ~flow ~subflow handler =
  Endpoint_key.validate ~host ~flow ~subflow;
  Endpoints.replace t.endpoints
    (Endpoint_key.pack ~host ~flow ~subflow)
    handler

let unregister_endpoint t ~host ~flow ~subflow =
  if
    host >= 0 && host <= Endpoint_key.max_dst && flow >= 0
    && flow <= Endpoint_key.max_flow
    && subflow >= 0
    && subflow <= Endpoint_key.max_subflow
  then Endpoints.remove t.endpoints (Endpoint_key.pack ~host ~flow ~subflow)

let endpoint_stats t = Endpoints.stats t.endpoints
let packets_dead_lettered t = t.dead
