type link = {
  capacity : float;
  k_threshold : float;
  mark_sharpness : float;
}

let link ?(mark_sharpness = 2.) ~rate ~k () =
  if rate <= 0 || k < 1 then invalid_arg "Fluid_network.link";
  {
    capacity = float_of_int rate /. 8. /. 1500.;
    k_threshold = float_of_int k;
    mark_sharpness;
  }

type subflow = { flow : int; links : int list; base_rtt : float }

type t = {
  beta : int;
  links : link array;
  subflows : subflow array;
  w : float array;  (* windows *)
  q : float array;  (* queues *)
  deltas : float array;
}

let create ~beta ~links ~subflows =
  if beta < 2 then invalid_arg "Fluid_network.create: beta";
  if links = [] || subflows = [] then
    invalid_arg "Fluid_network.create: empty";
  let links = Array.of_list links in
  let subflows = Array.of_list subflows in
  Array.iter
    (fun s ->
      if s.base_rtt <= 0. then invalid_arg "Fluid_network: base_rtt";
      List.iter
        (fun l ->
          if l < 0 || l >= Array.length links then
            invalid_arg "Fluid_network: link index")
        s.links)
    subflows;
  {
    beta;
    links;
    subflows;
    w = Array.make (Array.length subflows) 2.;
    q = Array.make (Array.length links) 0.;
    deltas = Array.make (Array.length subflows) 1.;
  }

(* queueing delay of link [l] in seconds *)
let qdelay t l = t.q.(l) /. t.links.(l).capacity

let rtt t i =
  let s = t.subflows.(i) in
  List.fold_left (fun acc l -> acc +. qdelay t l) s.base_rtt s.links

let rate t i = t.w.(i) /. rtt t i

(* sigmoid marking probability of link [l] *)
let mark_p t l =
  let lk = t.links.(l) in
  1. /. (1. +. exp (-.(t.q.(l) -. lk.k_threshold) /. lk.mark_sharpness))

(* probability that a round of subflow [i] sees at least one mark *)
let path_p t i =
  let clean =
    List.fold_left
      (fun acc l -> acc *. (1. -. mark_p t l))
      1. t.subflows.(i).links
  in
  1. -. clean

let refresh_deltas t =
  (* Equation 9 per flow, from the current windows and RTTs *)
  let n = Array.length t.subflows in
  let totals = Hashtbl.create 8 in
  let min_rtts = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let f = t.subflows.(i).flow in
    let r = rate t i in
    Hashtbl.replace totals f
      (r +. Option.value ~default:0. (Hashtbl.find_opt totals f));
    let ti = rtt t i in
    let cur =
      Option.value ~default:Float.max_float (Hashtbl.find_opt min_rtts f)
    in
    if ti < cur then Hashtbl.replace min_rtts f ti
  done;
  for i = 0 to n - 1 do
    let f = t.subflows.(i).flow in
    let total = Hashtbl.find totals f in
    let min_rtt = Hashtbl.find min_rtts f in
    t.deltas.(i) <-
      Trash.delta ~own_cwnd:t.w.(i) ~total_rate:total ~min_rtt_s:min_rtt
  done

let step t ~dt =
  refresh_deltas t;
  let n = Array.length t.subflows in
  let arrivals = Array.make (Array.length t.links) 0. in
  for i = 0 to n - 1 do
    let x = rate t i in
    List.iter (fun l -> arrivals.(l) <- arrivals.(l) +. x) t.subflows.(i).links
  done;
  (* windows *)
  for i = 0 to n - 1 do
    let p = path_p t i in
    let ti = rtt t i in
    let dw =
      (t.deltas.(i) *. (1. -. p) /. ti)
      -. (t.w.(i) *. p /. (ti *. float_of_int t.beta))
    in
    t.w.(i) <- Float.max 1. (t.w.(i) +. (dt *. dw))
  done;
  (* queues *)
  Array.iteri
    (fun l lk ->
      let dq = arrivals.(l) -. lk.capacity in
      t.q.(l) <- Float.max 0. (t.q.(l) +. (dt *. dq)))
    t.links

let run t ~dt ~steps =
  for _ = 1 to steps do
    step t ~dt
  done

let window t i = t.w.(i)
let queue t l = t.q.(l)
let delta t i = t.deltas.(i)

let total_arrival t l =
  let sum = ref 0. in
  Array.iteri
    (fun i (s : subflow) ->
      if List.mem l s.links then sum := !sum +. rate t i)
    t.subflows;
  !sum
