(* The measuring child of the xmpbench runner (run.py). Every invocation
   is a fresh process, so each measured run starts from a fresh heap and
   its peak RSS is its own.

     xmpbench.exe child WORKLOAD --seed N [--domains D] [--scale F]
       [--keep-flows] [--telemetry]
     xmpbench.exe micro [--quota SECONDS]

   [child] times the workload's set-up (the run call at scale 0) for at
   least 50 ms of calls, then one measured run, and prints one JSON line:
   the output digest, wall_s, the median set-up time setup_s, the peak
   resident set peak_rss_mb, the segment-hops, per-layer counts, and the
   spans run > setup, simulate, collect. [--keep-flows] keeps the
   open-loop flow records that segment-hops are counted from.
   [--telemetry] hands Driver workloads an enabled telemetry sink.
   [micro] prints the unit costs of Layers as one JSON object. Times come
   from the monotonic clock. *)

module Sim = Xmp_engine.Sim
module Sink = Xmp_telemetry.Sink
module W = Workloads

(* Set-up calls take 0.2-3 ms: repeat them for this long, and at least
   [min_setups] times, so that their median is steady. *)
let setup_quota_ns = 50_000_000

let min_setups = 5

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns /. 1e9

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_obj fields =
  let field (k, v) = Printf.sprintf "%S: %s" k v in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

let json_floats l = json_obj (List.map (fun (k, v) -> (k, json_float v)) l)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The process's peak resident set, VmHWM. Unlike the maxrss of
   getrusage or wait4, it belongs to the memory map made at exec alone,
   not to the parent the child was forked from. nan without /proc. *)
let peak_rss_mb () =
  let vm_hwm line =
    Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    Option.value ~default:nan
      (List.find_map vm_hwm (String.split_on_char '\n' status))
  | exception Sys_error _ -> nan

let child (w : W.t) ~seed ~domains ~scale ~keep_flows ~telemetry =
  let t_run = now_ns () in
  let spans = ref [] in
  let timed name f =
    let start = now_ns () in
    let v = f () in
    spans := (name, start, now_ns ()) :: !spans;
    v
  in
  let setup_s =
    timed "setup" (fun () ->
        let stop = now_ns () + setup_quota_ns in
        let rec calls n acc =
          if n >= min_setups && now_ns () >= stop then median acc
          else
            let t0 = now_ns () in
            ignore
              (w.run ~seed ~domains ~scale:0. ~keep_flows:false
                 ~telemetry:Sink.null);
            calls (n + 1) (seconds (now_ns () - t0) :: acc)
        in
        calls 0 [])
  in
  let sink = if telemetry then Sink.create () else Sink.null in
  Sim.reset_global_heap_peak ();
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let o =
    timed "simulate" (fun () ->
        w.run ~seed ~domains ~scale ~keep_flows ~telemetry:sink)
  in
  let wall_s = seconds (now_ns () - t0) in
  let fields =
    timed "collect" (fun () ->
        let peak_rss_mb = peak_rss_mb () in
        let gc1 = Gc.quick_stat () in
        let events = float_of_int (max 1 o.events) in
        let per_event a b = (a -. b) /. events in
        let counts =
          [
            ("engine.events", float_of_int o.events);
            ("engine.ns_per_event", wall_s *. 1e9 /. events);
            ("engine.heap_peak", float_of_int (Sim.global_heap_peak ()));
            ( "net.packet.pool_created",
              float_of_int (Xmp_net.Packet.pool_created ()) );
            ( "gc.minor_words_per_event",
              per_event gc1.minor_words gc0.minor_words );
            ( "gc.major_words_per_event",
              per_event gc1.major_words gc0.major_words );
            ( "gc.major_collections",
              float_of_int (gc1.major_collections - gc0.major_collections) );
            ("gc.top_heap_mb", mb_of_words gc1.top_heap_words);
          ]
        in
        [
          ("workload", Printf.sprintf "%S" w.name);
          ("seed", string_of_int seed);
          ("domains", string_of_int domains);
          ("sharded", string_of_bool w.sharded);
          ("digest", Printf.sprintf "%S" o.digest);
          ("wall_s", json_float wall_s);
          ("setup_s", json_float setup_s);
          ("peak_rss_mb", json_float peak_rss_mb);
          ("seg_hops", json_float (Option.value o.seg_hops ~default:nan));
          ("counts", json_floats (counts @ o.counts));
        ])
  in
  let span i (name, start, stop) =
    json_obj
      [
        ("name", Printf.sprintf "%S" name);
        ("id", string_of_int i);
        ("parent", if i = 0 then "null" else "0");
        ("start_ns", string_of_int (start - t_run));
        ("end_ns", string_of_int (stop - t_run));
      ]
  in
  let spans = ("run", t_run, now_ns ()) :: List.rev !spans in
  let spans = "[" ^ String.concat ", " (List.mapi span spans) ^ "]" in
  print_endline (json_obj (fields @ [ ("spans", spans) ]))

let usage () =
  prerr_endline
    "usage: xmpbench.exe child WORKLOAD --seed N [--domains D] [--scale F] \
     [--keep-flows] [--telemetry]\n\
    \       xmpbench.exe micro [--quota SECONDS]";
  exit 2

let () =
  (* as bin/xmp_sim: trade idle heap headroom for fewer major slices *)
  Gc.set { (Gc.get ()) with space_overhead = 200 };
  let int_arg s =
    match int_of_string_opt s with Some n when n >= 0 -> n | _ -> usage ()
  in
  let float_arg s =
    match float_of_string_opt s with Some f when f >= 0. -> f | _ -> usage ()
  in
  match List.tl (Array.to_list Sys.argv) with
  | "micro" :: rest ->
    let quota =
      match rest with
      | [] -> 0.2
      | [ "--quota"; q ] -> float_arg q
      | _ -> usage ()
    in
    print_endline (json_floats (Layers.run ~quota))
  | "child" :: name :: rest -> (
    match W.find name with
    | None ->
      Printf.eprintf "unknown workload %s\n" name;
      exit 2
    | Some w ->
      let seed = ref None and domains = ref 1 and scale = ref 1. in
      let keep_flows = ref false and telemetry = ref false in
      let rec parse = function
        | [] -> ()
        | "--seed" :: v :: r -> seed := Some (int_arg v); parse r
        | "--domains" :: v :: r -> domains := max 1 (int_arg v); parse r
        | "--scale" :: v :: r -> scale := float_arg v; parse r
        | "--keep-flows" :: r -> keep_flows := true; parse r
        | "--telemetry" :: r -> telemetry := true; parse r
        | _ -> usage ()
      in
      parse rest;
      match !seed with
      | None -> usage ()
      | Some seed ->
        child w ~seed ~domains:!domains ~scale:!scale ~keep_flows:!keep_flows
          ~telemetry:!telemetry)
  | _ -> usage ()
