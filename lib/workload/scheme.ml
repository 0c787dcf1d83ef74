module Time = Xmp_engine.Time
module Tcp = Xmp_transport.Tcp
module Coupling = Xmp_mptcp.Coupling
module Mptcp_flow = Xmp_mptcp.Mptcp_flow

type kind = Dctcp | Reno | Lia | Olia | Xmp | Balia | Veno | Amp

type t = { kind : kind; subflows : int }

(* ----- constructors ----- *)

let make kind subflows =
  if subflows < 1 then
    invalid_arg
      (Printf.sprintf "Scheme: subflow count must be >= 1, got %d" subflows);
  { kind; subflows }

let dctcp = make Dctcp 1

let reno = make Reno 1

let lia n = make Lia n

let olia n = make Olia n

let xmp n = make Xmp n

let balia n = make Balia n

let veno n = make Veno n

let amp n = make Amp n

(* ----- names ----- *)

let name t =
  match t.kind with
  | Dctcp -> "DCTCP"
  | Reno -> "TCP"
  | Lia -> Printf.sprintf "LIA-%d" t.subflows
  | Olia -> Printf.sprintf "OLIA-%d" t.subflows
  | Xmp -> Printf.sprintf "XMP-%d" t.subflows
  | Balia -> Printf.sprintf "BALIA-%d" t.subflows
  | Veno -> Printf.sprintf "VENO-%d" t.subflows
  | Amp -> Printf.sprintf "AMP-%d" t.subflows

let multipath_prefixes =
  [
    ("LIA", Lia); ("OLIA", Olia); ("XMP", Xmp); ("BALIA", Balia);
    ("VENO", Veno); ("AMP", Amp);
  ]

(* strict decimal suffix: [int_of_string_opt] alone would admit "0x2",
   "2_", "+2" and hand "XMP-2x"-style typos a scheme *)
let decimal_opt s =
  if String.length s > 0 && String.for_all (fun c -> c >= '0' && c <= '9') s
  then int_of_string_opt s
  else None

let of_name s =
  let s = String.uppercase_ascii (String.trim s) in
  let multipath (prefix, kind) =
    let plen = String.length prefix in
    if
      String.length s > plen + 1
      && String.sub s 0 (plen + 1) = prefix ^ "-"
    then
      match
        decimal_opt (String.sub s (plen + 1) (String.length s - plen - 1))
      with
      | Some n when n >= 1 -> Some (make kind n)
      | Some _ | None -> None
    else None
  in
  match s with
  | "DCTCP" -> Some dctcp
  | "TCP" | "RENO" -> Some reno
  | _ -> List.find_map multipath multipath_prefixes

(* ----- properties ----- *)

let n_subflows t = t.subflows

let uses_ecn t =
  match t.kind with
  | Dctcp | Xmp | Amp -> true
  | Reno | Lia | Olia | Balia | Veno -> false

type transport_overrides = { rto_min : Time.t; beta : int; sack : bool }

let default_overrides = { rto_min = Time.ms 200; beta = 4; sack = false }

let tcp_config t overrides =
  let base =
    match t.kind with
    | Xmp -> Xmp_core.Xmp.tcp_config
    | Dctcp | Amp -> Xmp_core.Xmp.dctcp_tcp_config
    | Reno | Lia | Olia | Balia | Veno -> Xmp_core.Xmp.plain_tcp_config
  in
  { base with Tcp.rto_min = overrides.rto_min; sack = overrides.sack }

let coupling t overrides =
  match t.kind with
  | Dctcp ->
    Coupling.uncoupled ~name:"dctcp" (fun view ->
        Xmp_transport.Dctcp.make view)
  | Reno ->
    Coupling.uncoupled ~name:"reno" (fun view ->
        Xmp_transport.Reno.make view)
  | Lia -> Xmp_mptcp.Lia.coupling ()
  | Olia -> Xmp_mptcp.Olia.coupling ()
  | Balia -> Xmp_mptcp.Balia.coupling ()
  | Veno -> Xmp_mptcp.Veno.coupling ()
  | Amp -> Xmp_mptcp.Amp.coupling ()
  | Xmp ->
    let params = { Xmp_core.Bos.default_params with beta = overrides.beta } in
    Xmp_core.Trash.coupling ~params ()

type observer = Mptcp_flow.observer = {
  on_complete : Mptcp_flow.t -> unit;
  on_subflow_acked : int -> int -> unit;
  on_rtt_sample : Time.t -> unit;
}

let silent = Mptcp_flow.silent

type launcher = { scheme : t; config : Tcp.config; coupling : Coupling.t }

let launcher t overrides =
  {
    scheme = t;
    config = tcp_config t overrides;
    coupling = coupling t overrides;
  }

let launch ~net ?rcv_net ~flow ~src ~dst ~paths ?size_segments ?start_at
    ?observer l =
  let wanted = n_subflows l.scheme in
  let given = List.length paths in
  if given = 0 || given > wanted then
    invalid_arg
      (Printf.sprintf "Scheme.launch: %s takes 1..%d paths, got %d"
         (name l.scheme) wanted given);
  Mptcp_flow.create ~net ?rcv_net ~flow ~src ~dst ~paths
    ~coupling:l.coupling ~config:l.config ?size_segments ?start_at
    ?observer ()

let pick_paths ~rng ~available ~wanted =
  if available <= 0 then invalid_arg "Scheme.pick_paths: available";
  let wanted = Stdlib.min wanted available in
  (* partial Fisher-Yates over 0..available-1 *)
  let arr = Array.init available (fun i -> i) in
  let picked = ref [] in
  for i = 0 to wanted - 1 do
    let j = i + Random.State.int rng (available - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp;
    picked := arr.(i) :: !picked
  done;
  List.rev !picked
