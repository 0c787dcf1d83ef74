module Time = Xmp_engine.Time
module Tcp = Xmp_transport.Tcp
module Coupling = Xmp_mptcp.Coupling
module Mptcp_flow = Xmp_mptcp.Mptcp_flow

type kind = Dctcp | Reno | Lia | Olia | Xmp | Balia | Veno | Amp

type ect_mode = Counted | Classic

type tunables = {
  xmp_beta : int option;
  xmp_k : int option;
  veno_beta : float option;
  amp_ect : ect_mode;
  rto_min : Time.t option;
  rto_max : Time.t option;
}

let default_tunables =
  {
    xmp_beta = None;
    xmp_k = None;
    veno_beta = None;
    amp_ect = Counted;
    rto_min = None;
    rto_max = None;
  }

type t = { kind : kind; subflows : int; tunables : tunables }

(* ----- constructors ----- *)

let make kind subflows tunables =
  if subflows < 1 then
    invalid_arg
      (Printf.sprintf "Scheme: subflow count must be >= 1, got %d" subflows);
  (match (tunables.rto_min, tunables.rto_max) with
  | Some lo, Some hi when Time.compare lo hi > 0 ->
    invalid_arg "Scheme: rto_min must be <= rto_max"
  | _ -> ());
  { kind; subflows; tunables }

let dctcp = make Dctcp 1 default_tunables

let reno = make Reno 1 default_tunables

let lia n = make Lia n default_tunables

let olia n = make Olia n default_tunables

let balia n = make Balia n default_tunables

let xmp ?beta ?k n =
  Option.iter
    (fun b ->
      if b < 2 then
        invalid_arg (Printf.sprintf "Scheme.xmp: beta must be >= 2, got %d" b))
    beta;
  Option.iter
    (fun k ->
      if k < 1 then
        invalid_arg (Printf.sprintf "Scheme.xmp: k must be >= 1, got %d" k))
    k;
  make Xmp n { default_tunables with xmp_beta = beta; xmp_k = k }

(* a Veno beta must survive "%g" printing in plain decimal so
   [of_name (name t) = Some t]: the strict grammar has no exponents *)
let plain_decimal s =
  let digits sub = String.length sub > 0 && String.for_all (fun c -> c >= '0' && c <= '9') sub in
  match String.index_opt s '.' with
  | None -> digits s
  | Some i ->
    digits (String.sub s 0 i)
    && digits (String.sub s (i + 1) (String.length s - i - 1))

let veno ?beta n =
  Option.iter
    (fun b ->
      let img = Printf.sprintf "%g" b in
      if not (b > 0. && plain_decimal img && float_of_string img = b) then
        invalid_arg
          (Printf.sprintf
             "Scheme.veno: beta must be positive and print exactly in plain \
              decimal, got %h" b))
    beta;
  make Veno n { default_tunables with veno_beta = beta }

let amp ?(ect = Counted) n = make Amp n { default_tunables with amp_ect = ect }

let with_rto ?rto_min ?rto_max t =
  let u = t.tunables in
  let keep opt old = match opt with Some _ -> opt | None -> old in
  make t.kind t.subflows
    { u with rto_min = keep rto_min u.rto_min; rto_max = keep rto_max u.rto_max }

(* ----- names ----- *)

let base_name t =
  match t.kind with
  | Dctcp -> "DCTCP"
  | Reno -> "TCP"
  | Lia -> Printf.sprintf "LIA-%d" t.subflows
  | Olia -> Printf.sprintf "OLIA-%d" t.subflows
  | Xmp -> Printf.sprintf "XMP-%d" t.subflows
  | Balia -> Printf.sprintf "BALIA-%d" t.subflows
  | Veno -> Printf.sprintf "VENO-%d" t.subflows
  | Amp -> Printf.sprintf "AMP-%d" t.subflows

(* non-default tunables in a fixed key order, making the name canonical:
   kind-specific keys first, then the generic rtomin/rtomax (nanoseconds,
   any kind) *)
let opt_strings t =
  let u = t.tunables in
  let kind_opts =
    match t.kind with
    | Xmp ->
      List.filter_map Fun.id
        [
          Option.map (Printf.sprintf "beta=%d") u.xmp_beta;
          Option.map (Printf.sprintf "k=%d") u.xmp_k;
        ]
    | Veno ->
      List.filter_map Fun.id
        [ Option.map (Printf.sprintf "beta=%g") u.veno_beta ]
    | Amp -> (
      match u.amp_ect with Counted -> [] | Classic -> [ "ect=classic" ])
    | Dctcp | Reno | Lia | Olia | Balia -> []
  in
  kind_opts
  @ List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "rtomin=%d") u.rto_min;
        Option.map (Printf.sprintf "rtomax=%d") u.rto_max;
      ]

let name t =
  match opt_strings t with
  | [] -> base_name t
  | opts -> base_name t ^ ":" ^ String.concat "," opts

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

let decimal_float_opt s = if plain_decimal s then float_of_string_opt s else None

let split_on_first c s =
  match String.index_opt s c with
  | None -> (s, None)
  | Some i ->
    (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

let base_of_name s =
  let multipath (prefix, kind) =
    let plen = String.length prefix in
    if
      String.length s > plen + 1
      && String.sub s 0 (plen + 1) = prefix ^ "-"
    then
      match
        decimal_opt (String.sub s (plen + 1) (String.length s - plen - 1))
      with
      | Some n when n >= 1 -> Some (kind, n)
      | Some _ | None -> None
    else None
  in
  match s with
  | "DCTCP" -> Some (Dctcp, 1)
  | "TCP" | "RENO" -> Some (Reno, 1)
  | _ -> List.find_map multipath multipath_prefixes

(* keys are per-kind; a key may appear at most once; the fold threads
   [tunables option] so any violation collapses to [None] *)
let apply_opt kind acc kv =
  Option.bind acc (fun u ->
      match (kind, split_on_first '=' kv) with
      | Xmp, ("BETA", Some v) when u.xmp_beta = None ->
        Option.bind (decimal_opt v) (fun b ->
            if b >= 2 then Some { u with xmp_beta = Some b } else None)
      | Xmp, ("K", Some v) when u.xmp_k = None ->
        Option.bind (decimal_opt v) (fun k ->
            if k >= 1 then Some { u with xmp_k = Some k } else None)
      | Veno, ("BETA", Some v) when u.veno_beta = None ->
        Option.bind (decimal_float_opt v) (fun b ->
            if b > 0. && float_of_string (Printf.sprintf "%g" b) = b then
              Some { u with veno_beta = Some b }
            else None)
      | Amp, ("ECT", Some "CLASSIC") when u.amp_ect = Counted ->
        Some { u with amp_ect = Classic }
      (* generic transport keys, valid on every kind; values in whole
         nanoseconds so round-trips through [name] are exact *)
      | _, ("RTOMIN", Some v) when u.rto_min = None ->
        Option.bind (decimal_opt v) (fun ns ->
            if ns >= 1 then Some { u with rto_min = Some ns } else None)
      | _, ("RTOMAX", Some v) when u.rto_max = None ->
        Option.bind (decimal_opt v) (fun ns ->
            if ns >= 1 then Some { u with rto_max = Some ns } else None)
      | _ -> None)

let of_name s =
  let s = String.uppercase_ascii (String.trim s) in
  let base, opts = split_on_first ':' s in
  match base_of_name base with
  | None -> None
  | Some (kind, subflows) -> (
    let tunables =
      match opts with
      | None -> Some default_tunables
      | Some "" -> None (* a trailing ":" names nothing *)
      | Some o ->
        List.fold_left (apply_opt kind) (Some default_tunables)
          (String.split_on_char ',' o)
    in
    match tunables with
    | Some u -> (
      (* [make] re-validates cross-field invariants (rtomin <= rtomax) *)
      try Some (make kind subflows u) with Invalid_argument _ -> None)
    | None -> None)

(* ----- properties ----- *)

let n_subflows t = t.subflows


let uses_ecn t =
  match t.kind with
  | Dctcp | Xmp | Amp -> true
  | Reno | Lia | Olia | Balia | Veno -> false

let marking_threshold t =
  match t.kind with Xmp -> t.tunables.xmp_k | _ -> None

type transport_overrides = {
  rto_min : Time.t;
  rto_max : Time.t;
  beta : int;
  sack : bool;
}

let default_overrides =
  { rto_min = Time.ms 200; rto_max = Time.sec 60.; beta = 4; sack = false }

let tcp_config t overrides =
  let base =
    match t.kind with
    | Xmp -> Xmp_core.Xmp.tcp_config
    | Dctcp -> Xmp_core.Xmp.dctcp_tcp_config
    | Amp -> (
      match t.tunables.amp_ect with
      | Counted -> Xmp_core.Xmp.dctcp_tcp_config
      | Classic -> { Xmp_core.Xmp.dctcp_tcp_config with Tcp.echo = Tcp.Classic })
    | Reno | Lia | Olia | Balia | Veno -> Xmp_core.Xmp.plain_tcp_config
  in
  (* per-scheme tunables win over the driver-wide overrides *)
  let rto_min = Option.value t.tunables.rto_min ~default:overrides.rto_min in
  let rto_max = Option.value t.tunables.rto_max ~default:overrides.rto_max in
  { base with Tcp.rto_min; rto_max; sack = overrides.sack }

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
  | Veno -> Xmp_mptcp.Veno.coupling ?beta_pkts:t.tunables.veno_beta ()
  | Amp -> Xmp_mptcp.Amp.coupling ()
  | Xmp ->
    let beta = Option.value t.tunables.xmp_beta ~default:overrides.beta in
    let params = { Xmp_core.Bos.default_params with beta } in
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
