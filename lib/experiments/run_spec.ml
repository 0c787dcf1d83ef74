(* One run as a value. The parser is strict and the printer canonical,
   so the printed form can serve as the run's identity everywhere a key
   is needed: a field the printer left out could not be set at all. *)

module Time = Xmp_engine.Time
module Fault_spec = Xmp_engine.Fault_spec
module Scheme = Xmp_workload.Scheme
module Driver = Xmp_workload.Driver
module Metrics = Xmp_workload.Metrics
module Open_loop = Xmp_workload.Open_loop
module Flow_size = Xmp_workload.Flow_size
module Wan = Xmp_net.Wan
module Fabric = Xmp_net.Fabric
module Units = Xmp_net.Units
module Topology = Xmp_net.Topology
module Distribution = Xmp_stats.Distribution
module Table = Xmp_stats.Table

type pattern = Permutation | Random | Incast

let pattern_name = function
  | Permutation -> "Permutation"
  | Random -> "Random"
  | Incast -> "Incast"

type base = {
  k : int;
  horizon : Time.t;
  seed : int;
  queue_pkts : int;
  marking_threshold : int;
  beta : int;
  rto_min : Time.t;
  sack : bool;
  size_scale : float;
  incast_jobs : int;
  faults : Fault_spec.t;
}

let default_base =
  {
    k = 4;
    horizon = Time.sec 2.5;
    seed = 1;
    queue_pkts = 100;
    marking_threshold = 10;
    beta = 4;
    rto_min = Time.ms 200;
    sack = false;
    (* size_scale 4 gives 8-64 MB flows: long-lived enough that slow-start
       restarts do not dominate (the paper's flows are 64-512 MB); with
       smaller flows the synchronized restarts systematically punish
       many-subflow LIA (see the flow-size ablation) *)
    size_scale = 4.;
    incast_jobs = 3;
    faults = Fault_spec.empty;
  }

let paper_scale_base =
  {
    default_base with
    k = 8;
    horizon = Time.sec 3.;
    size_scale = 8.;
    incast_jobs = 8;
  }

type cdf = Websearch | Datamining | Cdf_file of string

type workload = {
  fabric : Fabric.t;
  cross_dc : float;
  faults : Fault_spec.t;
  scheme : Scheme.t;
  cdf : cdf;
  size_scale : float;
  load : float;
  seed : int;
  horizon : Time.t;
  drain : Time.t;
  max_flows : int option;
  queue_pkts : int;
  marking_threshold : int;
  beta : int;
  rto_min : Time.t;
  sack : bool;
}

type panel =
  | Fig1 of { dctcp : bool; mark : int }
  | Fig4 of { beta : int }
  | Fig6 of { beta : int }
  | Fig7 of { beta : int; mark : int }

type testbed = {
  panel : panel;
  scale : float;
  seed : int;
  faults : Fault_spec.t;
}

(* A panel's figure, the one place each panel kind is looked up: its
   seed, its testbed and its run, which returns the panel's printer. *)
let figure panel =
  let printer print r () = print r in
  match panel with
  | Fig1 { dctcp; mark } ->
    ( Fig1.seed, Fig1.geometry,
      fun ~scale ~seed ~telemetry ~faults ->
        printer Fig1.print (Fig1.run ~scale ~seed ~telemetry ~faults { dctcp; k = mark }) )
  | Fig4 { beta } ->
    ( Fig4.seed, Fig4.geometry,
      fun ~scale ~seed ~telemetry ~faults ->
        printer Fig4.print (Fig4.run ~scale ~seed ~telemetry ~faults ~beta ()) )
  | Fig6 { beta } ->
    ( Fig6.seed, Fig6.geometry,
      fun ~scale ~seed ~telemetry ~faults ->
        printer Fig6.print (Fig6.run ~scale ~seed ~telemetry ~faults ~beta ()) )
  | Fig7 { beta; mark } ->
    ( Fig7.seed, Fig7.geometry,
      fun ~scale ~seed ~telemetry ~faults ->
        printer Fig7.print (Fig7.run ~scale ~seed ~telemetry ~faults ~beta ~k:mark ()) )

let testbed panel =
  let seed, _, _ = figure panel in
  { panel; scale = 0.2; seed; faults = Fault_spec.empty }

type t =
  | Pattern of { base : base; scheme : Scheme.t; pattern : pattern }
  | Workload of workload
  | Testbed of testbed

(* an incast job draws fanout + 1 distinct hosts *)
let incast_fanout = 8

(* Per-topology RTO floor: half the slowest zero-load cross-DC RTT,
   never below 1 ms. On a 40 ms trunk this is ~40 ms — above any
   delayed-ACK hold, far below the 200 ms intra-DC default. *)
let wan_rto_min ~left ~right ~trunks =
  Stdlib.max (Time.ms 1) (Wan.max_rtt_no_queue_of ~left ~right ~trunks / 2)

let workload fabric scheme cdf =
  let d = Open_loop.default_config in
  let rto_min, cross_dc =
    match fabric with
    | Fabric.Fat_tree _ -> (d.rto_min, d.cross_dc)
    | Bridged { left; right; trunks } -> (wan_rto_min ~left ~right ~trunks, 0.5)
  in
  {
    fabric;
    cross_dc;
    faults = d.faults;
    scheme;
    cdf;
    size_scale = 1. /. 32.;
    load = d.load;
    seed = d.seed;
    horizon = d.horizon;
    drain = d.drain;
    max_flows = d.max_flows;
    queue_pkts = d.queue_pkts;
    marking_threshold = d.marking_threshold;
    beta = d.beta;
    rto_min;
    sack = d.sack;
  }

(* ---- printing ---- *)

let float_to_string = Fault_spec.float_to_string

(* the largest unit that keeps the value whole *)
let time_to_string t =
  let unit = List.find_opt (fun (ns, _) -> t mod ns = 0) in
  match unit [ (1_000_000_000, "s"); (1_000_000, "ms"); (1_000, "us") ] with
  | Some (ns, suffix) -> string_of_int (t / ns) ^ suffix
  | None -> string_of_int t

let dc_to_string = function
  | Wan.Fat_tree_dc { k } -> Printf.sprintf "ft:%d" k
  | Wan.Leaf_spine_dc { leaves; spines; hosts_per_leaf } ->
    Printf.sprintf "ls:%d,%d,%d" leaves spines hosts_per_leaf

let trunk_to_string (t : Wan.trunk) =
  Printf.sprintf "%s:%s:%d:%d"
    (float_to_string (float_of_int t.trunk_delay /. 1e6))
    (float_to_string (Units.to_gbps t.trunk_rate))
    t.trunk_queue_pkts
    (Option.value t.trunk_marking_threshold ~default:0)

let cdf_to_string = function
  | Websearch -> "websearch"
  | Datamining -> "datamining"
  | Cdf_file path -> path

let fault_words (f : Fault_spec.t) =
  if Fault_spec.is_empty f then []
  else
    Printf.sprintf "fault-seed=%d" f.seed
    :: List.map (fun s -> "fault=" ^ Fault_spec.spec_to_string s) f.specs

(* Structured words (trunks, faults) come first and [sack=] (on a
   testbed, [cc=]) last, so nothing appended to a printed spec can extend
   a valid value. *)
let common_words ~seed ~horizon ~queue ~mark ~beta ~rto_min ~size_scale =
  [
    Printf.sprintf "seed=%d" seed;
    "horizon=" ^ time_to_string horizon;
    Printf.sprintf "queue=%d" queue;
    Printf.sprintf "mark=%d" mark;
    Printf.sprintf "beta=%d" beta;
    "rto-min=" ^ time_to_string rto_min;
    "size-scale=" ^ float_to_string size_scale;
  ]

let base_words (b : base) =
  fault_words b.faults
  @ common_words ~seed:b.seed ~horizon:b.horizon ~queue:b.queue_pkts
      ~mark:b.marking_threshold ~beta:b.beta ~rto_min:b.rto_min
      ~size_scale:b.size_scale
  @ [ Printf.sprintf "incast-jobs=%d" b.incast_jobs; Printf.sprintf "sack=%b" b.sack ]

let base_to_string b =
  String.concat " " (Printf.sprintf "ft:%d" b.k :: base_words b)

let to_string = function
  | Testbed { panel; scale; seed; faults } ->
    let beta = Printf.sprintf "beta=%d" and mark = Printf.sprintf "mark=%d" in
    let name, fields =
      match panel with
      | Fig1 { dctcp; mark = m } ->
        ("fig1", [ mark m; "cc=" ^ if dctcp then "dctcp" else "halving" ])
      | Fig4 { beta = b } -> ("fig4", [ beta b; "cc=xmp" ])
      | Fig6 { beta = b } -> ("fig6", [ beta b; "cc=xmp" ])
      | Fig7 { beta = b; mark = m } -> ("fig7", [ beta b; mark m; "cc=xmp" ])
    in
    String.concat " "
      ((("tb:" ^ name) :: fault_words faults)
      @ (Printf.sprintf "seed=%d" seed :: ("scale=" ^ float_to_string scale) :: fields))
  | Pattern { base; scheme; pattern } ->
    String.concat " "
      (Printf.sprintf "ft:%d" base.k
      :: Scheme.name scheme
      :: String.lowercase_ascii (pattern_name pattern)
      :: base_words base)
  | Workload w ->
    let topology, fabric_words =
      match w.fabric with
      | Fabric.Fat_tree k -> (Printf.sprintf "ft:%d" k, [])
      | Bridged { left; right; trunks } ->
        ( dc_to_string left ^ "+" ^ dc_to_string right,
          List.map (fun t -> "trunk=" ^ trunk_to_string t) trunks
          @ ("cross-dc=" ^ float_to_string w.cross_dc)
            :: fault_words w.faults )
    in
    String.concat " "
      ((topology :: Scheme.name w.scheme :: cdf_to_string w.cdf :: fabric_words)
      @ common_words ~seed:w.seed ~horizon:w.horizon ~queue:w.queue_pkts
          ~mark:w.marking_threshold ~beta:w.beta ~rto_min:w.rto_min
          ~size_scale:w.size_scale
      @ [
          "load=" ^ float_to_string w.load;
          "drain=" ^ time_to_string w.drain;
          (match w.max_flows with
          | None -> "flows=none"
          | Some n -> Printf.sprintf "flows=%d" n);
          Printf.sprintf "sack=%b" w.sack;
        ])

let key t =
  match t with
  | Workload { cdf = Cdf_file path; _ } -> to_string t ^ "\n" ^ Digest.to_hex (Digest.file path)
  | Pattern _ | Workload _ | Testbed _ -> to_string t

let keys specs = String.concat "\n" (List.map key specs)

(* ---- parsing ---- *)

exception Bad of string * string

let bad field fmt = Printf.ksprintf (fun why -> raise (Bad (field, why))) fmt

let check_incast k =
  let hosts = k * k * k / 4 in
  if hosts <= incast_fanout then
    bad "traffic" "incast's fanout %d needs %d hosts; ft:%d has %d"
      incast_fanout (incast_fanout + 1) k hosts

(* bare decimal: no sign but '-', no hex, no underscores *)
let decimal s =
  let n = String.length s in
  let digits = if n > 1 && s.[0] = '-' then String.sub s 1 (n - 1) else s in
  if digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits
  then int_of_string_opt s
  else None

let int_at_least lo field v =
  match decimal v with
  | Some n when n >= lo -> n
  | _ -> bad field "%S is not an integer >= %d" v lo

let any_int field v =
  match decimal v with Some n -> n | None -> bad field "%S is not an integer" v

let float_in ok what field v =
  match float_of_string_opt v with
  | Some x when Float.is_finite x && ok x -> x
  | _ -> bad field "%S is not %s" v what

let positive = float_in (fun x -> x > 0.) "a finite positive number"

let fraction = float_in (fun x -> x >= 0. && x <= 1.) "a fraction in [0, 1]"

let time_in lo field v =
  match Fault_spec.time_of_string v with
  | t when t >= lo && not (Time.is_infinite t) -> t
  | _ -> bad field "%S is not a finite time >= %dns (2s, 250ms, 40us)" v lo
  | exception Invalid_argument _ ->
    bad field "%S is not a time (2s, 250ms, 40us or integer ns)" v

let bool field = function
  | "true" -> true
  | "false" -> false
  | v -> bad field "%S is not true or false" v

let dc_of_string s =
  match String.split_on_char ':' s with
  | [ "ft"; k ] -> (
    match decimal k with
    | Some k when k >= 2 && k mod 2 = 0 -> Wan.Fat_tree_dc { k }
    | _ -> bad "topology" "bad fat-tree arity %S (even, >= 2)" k)
  | [ "ls"; dims ] -> (
    match List.map decimal (String.split_on_char ',' dims) with
    | [ Some leaves; Some spines; Some hosts_per_leaf ]
      when leaves >= 1 && spines >= 1 && hosts_per_leaf >= 1 ->
      Wan.Leaf_spine_dc { leaves; spines; hosts_per_leaf }
    | _ -> bad "topology" "bad leaf-spine dims %S" dims)
  | _ -> bad "topology" "%S is not ft:K or ls:LEAVES,SPINES,HOSTS" s

let trunk_of_string v =
  let fail () =
    bad "trunk" "%S is not DELAY_MS[:RATE_GBPS[:QUEUE_PKTS[:MARK_PKTS]]]" v
  in
  let pos x = try positive "trunk" x with Bad _ -> fail () in
  let count lo x = match decimal x with Some n when n >= lo -> n | _ -> fail () in
  match String.split_on_char ':' v with
  | delay_ms :: rest when List.length rest <= 3 -> (
    let field i f = Option.map f (List.nth_opt rest i) in
    try
      Wan.trunk
        ~delay:(Time.of_float_s (pos delay_ms /. 1000.))
        ?rate:
          (field 0 (fun g ->
               match int_of_float (Float.round (pos g *. 1e9)) with
               | bps when bps > 0 -> bps
               | _ -> fail ()))
        ?queue_pkts:(field 1 (count 1))
        ?marking_threshold:
          (Option.bind (field 2 (count 0)) (function 0 -> None | m -> Some m))
        ()
    with Invalid_argument _ -> fail ())
  | _ -> fail ()

let words s =
  let blank = function '\t' | '\n' | '\r' -> ' ' | c -> c in
  List.filter (( <> ) "") (String.split_on_char ' ' (String.map blank s))

(* [f] reads the KEY=VALUE [words] through [all key]; a word no read
   asked for is an error *)
let with_fields words f =
  let fields =
    List.map
      (fun w ->
        match String.index_opt w '=' with
        | Some i when i > 0 ->
          (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
        | _ -> bad w "expected KEY=VALUE")
      words
  in
  let used = ref [] in
  let all key =
    used := key :: !used;
    List.filter_map (fun (k, v) -> if k = key then Some v else None) fields
  in
  let t = f all in
  (match List.find_opt (fun (k, _) -> not (List.mem k !used)) fields with
  | Some (k, _) -> bad k "is not a field of this run"
  | None -> ());
  t

let opt all key conv =
  match all key with
  | [] -> None
  | [ v ] -> Some (conv key v)
  | _ -> bad key "given twice"

let get all key conv default = Option.value (opt all key conv) ~default

(* A run's topology, built on a throwaway one-shard cluster with
   one-slot queues: what its [link=]/[tag=]/[host=] fault targets name. *)
let scratch build =
  let cluster = Xmp_net.Shard.create ~shards:1 () in
  build ~cluster ~disc:(fun () ->
      Xmp_net.Queue_disc.create ~policy:Xmp_net.Queue_disc.Droptail
        ~capacity_pkts:1);
  Xmp_net.Shard.net cluster 0

let build_panel panel ~cluster ~disc =
  let _, geometry, _ = figure panel in
  ignore (Panel.testbed geometry ~net:(Xmp_net.Shard.net cluster 0) ~disc)

let build_fabric fabric ~cluster ~disc = ignore (Fabric.create ~cluster ~disc fabric)

(* The schedule's targets must exist in the topology [build] makes: the
   injector resolves them against a scratch copy, which is built only
   when some target names a link, tag or host. *)
let faults_of all build =
  let specs =
    List.map
      (fun v ->
        try Fault_spec.spec_of_string v
        with Invalid_argument m -> bad "fault" "%s" m)
      (all "fault")
  in
  match (specs, opt all "fault-seed" any_int) with
  | [], None -> Fault_spec.empty
  | [], Some _ -> bad "fault-seed" "needs at least one fault="
  | specs, seed -> (
    let named : Fault_spec.spec -> bool = function
      | Link_down { target; _ } | Link_up { target; _ } | Loss { target; _ }
      | Blackout { target; _ } -> (
        match target with Link _ | Tag _ -> true | All_links -> false)
      | Host_pause _ -> true
    in
    try
      let faults = Fault_spec.create ?seed specs in
      if List.exists named specs then
        ignore (Xmp_faults.Injector.install ~net:(scratch build) faults);
      faults
    with Invalid_argument m -> bad "fault" "%s" m)

let base_of k all =
  let d = default_base in
  {
    k;
    faults = faults_of all (build_fabric (Fat_tree k));
    seed = get all "seed" any_int d.seed;
    horizon = get all "horizon" (time_in 1) d.horizon;
    queue_pkts = get all "queue" (int_at_least 1) d.queue_pkts;
    marking_threshold = get all "mark" (int_at_least 0) d.marking_threshold;
    beta = get all "beta" (int_at_least 2) d.beta;
    rto_min = get all "rto-min" (time_in 1) d.rto_min;
    size_scale = get all "size-scale" positive d.size_scale;
    incast_jobs = get all "incast-jobs" (int_at_least 1) d.incast_jobs;
    sack = get all "sack" bool d.sack;
  }

let fabric_of topology =
  match String.split_on_char '+' topology with
  | [ one ] -> (
    match dc_of_string one with
    | Wan.Fat_tree_dc { k } -> `Fat_tree k
    | Wan.Leaf_spine_dc _ -> bad "topology" "one data center must be ft:K")
  | [ left; right ] -> `Bridged (dc_of_string left, dc_of_string right)
  | _ -> bad "topology" "%S is not ft:K or LEFT+RIGHT" topology

(* the first choice of [cc=] is the default *)
let testbed_of head all =
  let mark default = get all "mark" (int_at_least 0) default in
  let cc choices =
    let pick key v =
      match List.assoc_opt v choices with
      | Some c -> c
      | None -> bad key "%S is not %s on %s" v (String.concat " or " (List.map fst choices)) head
    in
    get all "cc" pick (snd (List.hd choices))
  in
  let panel =
    match head with
    | "tb:fig1" -> Fig1 { dctcp = cc [ ("dctcp", true); ("halving", false) ]; mark = mark 10 }
    | "tb:fig4" | "tb:fig6" | "tb:fig7" -> (
      let () = cc [ ("xmp", ()) ] and beta = get all "beta" (int_at_least 2) 4 in
      match head with
      | "tb:fig4" -> Fig4 { beta }
      | "tb:fig6" -> Fig6 { beta }
      | _ -> Fig7 { beta; mark = mark 20 })
    | _ -> bad "topology" "%S is not tb:fig1, tb:fig4, tb:fig6 or tb:fig7" head
  in
  let d = testbed panel in
  {
    panel;
    seed = get all "seed" any_int d.seed;
    scale = get all "scale" positive d.scale;
    faults = faults_of all (build_panel panel);
  }

let parse s =
  match words s with
  | head :: words when String.starts_with ~prefix:"tb:" head ->
    Testbed (with_fields words (testbed_of head))
  | topology :: scheme_word :: traffic :: words ->
    let fabric = fabric_of topology in
    let scheme =
      match Scheme.of_name scheme_word with
      | Some scheme -> scheme
      | None -> bad "scheme"
            "unknown scheme %S (e.g. XMP-2, DCTCP; set beta=, mark= or \
             rto-min= on the run)"
            scheme_word
    in
    let pattern =
      List.assoc_opt traffic
        [ ("permutation", Permutation); ("random", Random); ("incast", Incast) ]
    in
    with_fields words (fun all ->
        match (pattern, fabric) with
        | Some pattern, `Fat_tree k ->
          if pattern = Incast then check_incast k;
          Pattern { base = base_of k all; scheme; pattern }
        | Some _, `Bridged _ -> bad "traffic" "a pattern runs on one ft:K fabric, not a WAN"
        | None, _ ->
          let cdf =
            match traffic with
            | "websearch" -> Websearch
            | "datamining" -> Datamining
            | path when Sys.file_exists path -> (
              match Flow_size.of_file path with
              | _ -> Cdf_file path
              | exception (Invalid_argument m | Sys_error m) ->
                bad "traffic" "%s" m)
            | w ->
              bad "traffic"
                "%S is not permutation, random, incast, websearch, datamining \
                 or a CDF file" w
          in
          let fabric =
            match fabric with
            | `Fat_tree k -> Fabric.Fat_tree k
            | `Bridged (left, right) ->
              let trunks =
                match List.map trunk_of_string (all "trunk") with
                | [] -> [ Wan.trunk () ]
                | trunks -> trunks
              in
              Fabric.Bridged { left; right; trunks }
          in
          let d = workload fabric scheme cdf in
          let d =
            match fabric with
            | Fat_tree _ -> d
            | Bridged { left; right; _ } ->
              let cross_dc = get all "cross-dc" fraction d.cross_dc in
              (* a mixed draw picks a local destination, which a
                 one-host data center does not have *)
              if cross_dc > 0. && cross_dc < 1.
                 && (Wan.dc_n_hosts left = 1 || Wan.dc_n_hosts right = 1)
              then
                bad "cross-dc" "%s needs 0 or 1: a data center of %s has one host"
                  (float_to_string cross_dc) topology;
              { d with cross_dc; faults = faults_of all (build_fabric fabric) }
          in
          Workload
            {
              d with
              seed = get all "seed" any_int d.seed;
              horizon = get all "horizon" (time_in 1) d.horizon;
              queue_pkts = get all "queue" (int_at_least 1) d.queue_pkts;
              marking_threshold = get all "mark" (int_at_least 0) d.marking_threshold;
              beta = get all "beta" (int_at_least 2) d.beta;
              rto_min = get all "rto-min" (time_in 1) d.rto_min;
              size_scale = get all "size-scale" positive d.size_scale;
              load = get all "load" positive d.load;
              drain = get all "drain" (time_in 0) d.drain;
              max_flows =
                get all "flows"
                  (fun key v ->
                    if v = "none" then None else Some (int_at_least 1 key v))
                  d.max_flows;
              sack = get all "sack" bool d.sack;
            })
  | _ -> bad "spec" "%S is not TOPOLOGY SCHEME TRAFFIC [KEY=VALUE ...] or tb:FIG [KEY=VALUE ...]" s

let catch f s =
  match f s with
  | t -> Ok t
  | exception Bad (field, why) -> Error (Printf.sprintf "field '%s': %s" field why)

let of_string = catch parse

let base_of_string =
  catch (fun s ->
      match words s with
      | topology :: words -> (
        match fabric_of topology with
        | `Fat_tree k -> with_fields words (base_of k)
        | `Bridged _ -> bad "topology" "a base is one ft:K fabric, not a WAN")
      | [] -> bad "spec" "%S is not ft:K [KEY=VALUE ...]" s)

let incast_base =
  catch (fun (b : base) ->
      check_incast b.k;
      b)

(* ---- pattern runs ---- *)

let scaled_segments (base : base) s =
  Stdlib.max 1 (int_of_float (Float.round (float_of_int s *. base.size_scale)))

let segs_of_mb mb = int_of_float (Float.ceil (mb *. 1e6 /. 1460.))

let pattern_of base = function
  | Permutation ->
    Driver.Permutation
      {
        min_segments = scaled_segments base (segs_of_mb 2.);
        max_segments = scaled_segments base (segs_of_mb 16.);
      }
  | Random ->
    Driver.Random_pattern
      {
        mean_segments = float_of_int (scaled_segments base (segs_of_mb 6.));
        cap_segments = float_of_int (scaled_segments base (segs_of_mb 24.));
        shape = 1.5;
        max_inbound = 4;
      }
  | Incast ->
    Driver.Incast
      {
        jobs = base.incast_jobs;
        fanout = incast_fanout;
        request_segments = 2;
        response_segments = 45;
        bg_mean_segments = float_of_int (scaled_segments base (segs_of_mb 6.));
        bg_cap_segments = float_of_int (scaled_segments base (segs_of_mb 24.));
        bg_shape = 1.5;
      }

let driver_config (base : base) scheme pattern =
  {
    Driver.fabric = Fat_tree base.k;
    seed = base.seed;
    cross_dc = 0.;
    horizon = base.horizon;
    queue_pkts = base.queue_pkts;
    marking_threshold = base.marking_threshold;
    beta = base.beta;
    rto_min = base.rto_min;
    sack = base.sack;
    assignment = Driver.Uniform scheme;
    pattern = pattern_of base pattern;
    faults = base.faults;
    telemetry = Xmp_telemetry.Sink.null;
  }

(* xmplint: allow mutable-global — per-process memo of completed runs,
   keyed by the run's canonical spec. A runner worker keeps it across
   the scenarios it runs, so views over one base share their runs; the
   reuse is safe because the key covers every input that affects a run.
   Not yet domain-safe: guard or shard it before Domains-parallel
   evaluation. *)
let cache : (string, Driver.result) Hashtbl.t = Hashtbl.create 32

let result base scheme pattern =
  let key = to_string (Pattern { base; scheme; pattern }) in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
    let r = Driver.run (driver_config base scheme pattern) in
    Hashtbl.replace cache key r;
    r

let print_eval base scheme pattern =
  let r = result base scheme pattern in
  let m = r.Driver.metrics in
  Render.heading
    (Printf.sprintf "%s under %s" (Scheme.name scheme) (pattern_name pattern));
  Render.printf "large flows recorded: %d\n" (Metrics.n_completed_flows m);
  Render.printf "mean goodput: %.1f Mbps\n" (Metrics.mean_goodput_bps m /. 1e6);
  let jobs = Metrics.job_times_ms m in
  if not (Distribution.is_empty jobs) then
    Render.printf "jobs: %d, mean completion %.1f ms, >300ms %.1f%%\n"
      (Distribution.count jobs) (Distribution.mean jobs)
      (100. *. Metrics.jobs_over_ms m 300.);
  Render.subheading "link utilization by layer";
  Render.five_number_table ~value_header:"layer" (Driver.utilization_by_layer r);
  Render.subheading "RTT by locality (ms)";
  Render.five_number_table ~value_header:"locality"
    (List.map
       (fun (loc, d) -> (Topology.locality_name loc, d))
       (Metrics.rtts_by_locality m));
  Render.printf "events executed: %d\n" r.Driver.events

(* Fault-injection evaluation: the run's flows and goodput beside the
   injector's own drop and link-transition counts. *)
let print_fault_eval (base : base) scheme pattern =
  Render.heading
    (Printf.sprintf "Fault evaluation: %s under %s" (Scheme.name scheme)
       (pattern_name pattern));
  List.iter
    (fun spec ->
      Render.say (Printf.sprintf "fault: %s" (Fault_spec.spec_to_string spec)))
    base.faults.Fault_spec.specs;
  let r = result base scheme pattern in
  let m = r.Driver.metrics and injector = r.Driver.injector in
  let jobs = Metrics.job_times_ms m in
  let count f = string_of_int (f injector) in
  Table.print
    ~header:[ "Metric"; "Value" ]
    ~rows:
      [
        [ "Flows recorded"; string_of_int (Metrics.n_completed_flows m) ];
        [
          "Flows truncated at horizon";
          string_of_int (Metrics.n_truncated_flows m);
        ];
        [
          "Mean goodput (Mbps)";
          Table.fixed 1 (Metrics.mean_goodput_bps r.Driver.metrics /. 1e6);
        ];
        [ "Jobs completed"; string_of_int (Distribution.count jobs) ];
        [ "Injected drops"; count Xmp_faults.Injector.injected_drops ];
        [ "link-down events"; count Xmp_faults.Injector.link_downs ];
        [ "link-up events"; count Xmp_faults.Injector.link_ups ];
        [ "injected-drop events"; count Xmp_faults.Injector.injected_drops ];
      ]
    ()

(* ---- open-loop runs ---- *)

let config (w : workload) =
  let cdf =
    match w.cdf with
    | Websearch -> Flow_size.web_search
    | Datamining -> Flow_size.data_mining
    | Cdf_file path -> Flow_size.of_file path
  in
  {
    Open_loop.default_config with
    fabric = w.fabric;
    seed = w.seed;
    scheme = w.scheme;
    sizes = (if w.size_scale = 1. then cdf else Flow_size.scaled cdf w.size_scale);
    load = w.load;
    horizon = w.horizon;
    drain = w.drain;
    max_flows = w.max_flows;
    queue_pkts = w.queue_pkts;
    marking_threshold = w.marking_threshold;
    beta = w.beta;
    rto_min = w.rto_min;
    sack = w.sack;
    cross_dc = w.cross_dc;
    faults = w.faults;
  }

let simulate ?(domains = 1) w = Open_loop.run ~config:(config w) ~domains ()

let goodput_csv m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "locality,flows,mean_mbps,p50_mbps,p90_mbps,max_mbps\n";
  List.iter
    (fun (loc, d) ->
      if not (Distribution.is_empty d) then
        Buffer.add_string buf
          (Printf.sprintf "%s,%d,%.6g,%.6g,%.6g,%.6g\n"
             (Topology.locality_name loc) (Distribution.count d)
             (Distribution.mean d /. 1e6)
             (Distribution.percentile d 50. /. 1e6)
             (Distribution.percentile d 90. /. 1e6)
             (Distribution.max d /. 1e6)))
    (Metrics.goodputs_by_locality m);
  Buffer.contents buf

(* ---- testbed panels ---- *)

let simulate_panel ~telemetry { panel; scale; seed; faults } =
  let _, _, simulate = figure panel in
  simulate ~scale ~seed ~telemetry ~faults

let run ?domains = function
  | Testbed tb ->
    simulate_panel ~telemetry:Xmp_telemetry.Sink.null tb ();
    []
  | Pattern { base; scheme; pattern } ->
    if Fault_spec.is_empty base.faults then print_eval base scheme pattern
    else print_fault_eval base scheme pattern;
    []
  | Workload w ->
    let r = simulate ?domains w in
    let c = r.Open_loop.config and m = r.Open_loop.metrics in
    (match w.fabric with
    | Fat_tree k ->
      Render.printf
        "workload %s: k=%d seed=%d load=%.3f cdf=%s mean_size=%.1f segments\n"
        (Scheme.name w.scheme) k w.seed w.load (Flow_size.name c.sizes)
        (Flow_size.mean_segments c.sizes)
    | Bridged { left; right; trunks } ->
      Render.printf
        "wan %s: %d+%d hosts, %d trunk(s), cross-dc %.3f, rto_min %.1f ms\n"
        (Scheme.name c.scheme) (Wan.dc_n_hosts left) (Wan.dc_n_hosts right)
        (List.length trunks) w.cross_dc
        (float_of_int w.rto_min /. 1e6));
    Render.printf
      "flows: %d launched, %d completed, %d truncated (horizon %.3fs + drain \
       %.3fs)\n"
      r.Open_loop.launched r.Open_loop.completed r.Open_loop.truncated
      (Time.to_float_s w.horizon) (Time.to_float_s w.drain);
    Render.printf "events executed: %d (portal mail %d)\n" r.Open_loop.events
      r.Open_loop.mail;
    let fct = Metrics.fct_summary_csv m in
    Render.printf "%s" fct;
    (".fct.csv", fct)
    :: (".cdf.csv", Metrics.fct_cdf_csv m)
    ::
    (match w.fabric with
    | Bridged _ -> [ (".goodput.csv", goodput_csv m) ]
    | Fat_tree _ -> [])

let scratch_net t =
  scratch
    (match t with
    | Testbed { panel; _ } -> build_panel panel
    | Pattern { base = { k; _ }; _ } -> build_fabric (Fat_tree k)
    | Workload { fabric; _ } -> build_fabric fabric)
