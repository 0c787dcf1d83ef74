(* Declarative fault schedules.

   This module is pure data: it names links by string and hosts by id so
   that the engine can carry a schedule inside [Sim.config] without
   depending on the network layer. The mechanism that resolves targets
   and arms simulator events lives in [Xmp_faults.Injector].

   Every spec has an exact canonical string form ([spec_to_string] /
   [spec_of_string] round-trip) which doubles as the CLI syntax and as
   the [fault=] field of a run spec, and so of its digest. *)

type target = Link of string | Tag of string | All_links

type loss_model =
  | Bernoulli of float
  | Gilbert_elliott of {
      enter_bad : float;
      exit_bad : float;
      loss_good : float;
      loss_bad : float;
    }

type packet_filter = Any_packet | Data_only | Ack_only

type window = { from_ns : Time.t; until_ns : Time.t }

type spec =
  | Link_down of { target : target; at : Time.t }
  | Link_up of { target : target; at : Time.t }
  | Loss of {
      target : target;
      window : window;
      model : loss_model;
      filter : packet_filter;
    }
  | Blackout of { target : target; window : window }
  | Host_pause of { host : int; window : window }

type t = { seed : int; specs : spec list }

let empty = { seed = 0; specs = [] }

let is_empty t = match t.specs with [] -> true | _ :: _ -> false

let window ~from_ns ~until_ns = { from_ns; until_ns }

(* ---- validation ------------------------------------------------------ *)

let fail fmt = Printf.ksprintf invalid_arg fmt

let check_probability what p =
  if not (p >= 0. && p <= 1.) then
    fail "Fault_spec: %s probability %g outside [0, 1]" what p

let check_target = function
  | Link "" -> fail "Fault_spec: empty link name"
  | Tag "" -> fail "Fault_spec: empty tag name"
  | Link _ | Tag _ | All_links -> ()

let check_time what at =
  if Time.compare at Time.zero < 0 then
    fail "Fault_spec: negative %s time" what

let check_window w =
  check_time "window start" w.from_ns;
  if Time.compare w.from_ns w.until_ns >= 0 then
    fail "Fault_spec: window end not after start"

let check_model = function
  | Bernoulli p -> check_probability "loss" p
  | Gilbert_elliott g ->
    check_probability "enter-bad" g.enter_bad;
    check_probability "exit-bad" g.exit_bad;
    check_probability "good-state loss" g.loss_good;
    check_probability "bad-state loss" g.loss_bad

let validate_spec = function
  | Link_down { target; at } | Link_up { target; at } ->
    check_target target;
    check_time "link transition" at
  | Loss { target; window; model; filter = _ } ->
    check_target target;
    check_window window;
    check_model model
  | Blackout { target; window } ->
    check_target target;
    check_window window
  | Host_pause { host; window } ->
    if host < 0 then fail "Fault_spec: negative host id %d" host;
    check_window window

let validate t = List.iter validate_spec t.specs

let create ?(seed = 0) specs =
  let t = { seed; specs } in
  validate t;
  t

(* ---- canonical string form ------------------------------------------ *)

let target_to_string = function
  | Link name -> "link=" ^ name
  | Tag name -> "tag=" ^ name
  | All_links -> "all"

let time_to_string at =
  if Time.compare at Time.infinity = 0 then "inf" else string_of_int at

let window_to_string w =
  time_to_string w.from_ns ^ ".." ^ time_to_string w.until_ns

let filter_to_string = function
  | Any_packet -> "any"
  | Data_only -> "data"
  | Ack_only -> "ack"

let float_to_string x =
  let s = Printf.sprintf "%.15g" x in
  if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x

let model_to_string = function
  | Bernoulli p -> "bern=" ^ float_to_string p
  | Gilbert_elliott g ->
    Printf.sprintf "ge=%s,%s,%s,%s" (float_to_string g.enter_bad)
      (float_to_string g.exit_bad) (float_to_string g.loss_good)
      (float_to_string g.loss_bad)

let spec_to_string = function
  | Link_down { target; at } ->
    Printf.sprintf "down@%s@%s" (time_to_string at) (target_to_string target)
  | Link_up { target; at } ->
    Printf.sprintf "up@%s@%s" (time_to_string at) (target_to_string target)
  | Loss { target; window; model; filter } ->
    Printf.sprintf "loss@%s@%s@%s@%s" (window_to_string window)
      (target_to_string target) (model_to_string model)
      (filter_to_string filter)
  | Blackout { target; window } ->
    Printf.sprintf "blackout@%s@%s" (window_to_string window)
      (target_to_string target)
  | Host_pause { host; window } ->
    Printf.sprintf "pause@%s@host=%d" (window_to_string window) host

let parse_error s why = fail "Fault_spec: cannot parse %S (%s)" s why

(* a time is canonical integer nanoseconds, "inf", or a human-friendly
   float with an s/ms/us suffix ("1.5s", "250ms"); a suffixed time past
   [max_int] ns is bad, not wrapped by [int_of_float] *)
let parse_time s full =
  match int_of_string_opt s with
  | Some ns -> ns
  | None -> (
    if s = "inf" then Time.infinity
    else
      let suffixed suffix scale =
        let n = String.length s - String.length suffix in
        if n > 0 && Filename.check_suffix s suffix then
          match float_of_string_opt (String.sub s 0 n) with
          | Some sec when sec >= 0. ->
            let ns = Float.round (sec *. scale) in
            if ns < Float.of_int max_int then Some (int_of_float ns) else None
          | _ -> None
        else None
      in
      match (suffixed "ms" 1e6, suffixed "us" 1e3, suffixed "s" 1e9) with
      | Some ns, _, _ | None, Some ns, _ | None, None, Some ns -> ns
      | None, None, None -> parse_error full ("bad time " ^ s))

let time_of_string s = parse_time s s

(* "<from>..<until>"; the split is on the last ".." so float starts like
   "1.5s..inf" parse unambiguously *)
let window_of_string s full =
  let sep = ref (-1) in
  String.iteri
    (fun i c -> if c = '.' && i + 1 < String.length s && s.[i + 1] = '.' then
        sep := i)
    s;
  if !sep < 0 then parse_error full ("bad window " ^ s)
  else
    let i = !sep in
    {
      from_ns = parse_time (String.sub s 0 i) full;
      until_ns = parse_time (String.sub s (i + 2) (String.length s - i - 2)) full;
    }

let target_of_string s full =
  if s = "all" then All_links
  else
    match String.index_opt s '=' with
    | Some i when String.sub s 0 i = "link" ->
      Link (String.sub s (i + 1) (String.length s - i - 1))
    | Some i when String.sub s 0 i = "tag" ->
      Tag (String.sub s (i + 1) (String.length s - i - 1))
    | _ -> parse_error full ("bad target " ^ s)

let filter_of_string s full =
  match s with
  | "any" -> Any_packet
  | "data" -> Data_only
  | "ack" -> Ack_only
  | _ -> parse_error full ("bad packet filter " ^ s)

let model_of_string s full =
  match String.index_opt s '=' with
  | Some i when String.sub s 0 i = "bern" -> (
    match float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
    with
    | Some p -> Bernoulli p
    | None -> parse_error full ("bad loss probability in " ^ s))
  | Some i when String.sub s 0 i = "ge" -> (
    let body = String.sub s (i + 1) (String.length s - i - 1) in
    match List.map float_of_string_opt (String.split_on_char ',' body) with
    | [ Some enter_bad; Some exit_bad; Some loss_good; Some loss_bad ] ->
      Gilbert_elliott { enter_bad; exit_bad; loss_good; loss_bad }
    | _ -> parse_error full ("ge wants 4 comma-separated probabilities: " ^ s))
  | _ -> parse_error full ("bad loss model " ^ s)

let spec_of_string s =
  let spec =
    match String.split_on_char '@' s with
    | [ "down"; at; target ] ->
      Link_down
        { target = target_of_string target s; at = parse_time at s }
    | [ "up"; at; target ] ->
      Link_up { target = target_of_string target s; at = parse_time at s }
    | [ "loss"; window; target; model ] ->
      Loss
        {
          target = target_of_string target s;
          window = window_of_string window s;
          model = model_of_string model s;
          filter = Any_packet;
        }
    | [ "loss"; window; target; model; filter ] ->
      Loss
        {
          target = target_of_string target s;
          window = window_of_string window s;
          model = model_of_string model s;
          filter = filter_of_string filter s;
        }
    | [ "blackout"; window; target ] ->
      Blackout
        {
          target = target_of_string target s;
          window = window_of_string window s;
        }
    | [ "pause"; window; host ] -> (
      match String.index_opt host '=' with
      | Some i
        when String.sub host 0 i = "host"
             && int_of_string_opt
                  (String.sub host (i + 1) (String.length host - i - 1))
                <> None ->
        Host_pause
          {
            host =
              int_of_string
                (String.sub host (i + 1) (String.length host - i - 1));
            window = window_of_string window s;
          }
      | _ -> parse_error s ("bad host " ^ host))
    | _ -> parse_error s "unknown fault form"
  in
  validate_spec spec;
  spec
