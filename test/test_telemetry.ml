(* Telemetry subsystem: labels, registry, histogram accuracy, flight
   recorder ring semantics, disabled-sink no-ops, and the contract that
   enabling telemetry does not perturb a simulation's trajectory. *)

module Tel = Xmp_telemetry
module Label = Tel.Label
module Metric = Tel.Metric
module Registry = Tel.Registry
module Recorder = Tel.Recorder
module Event = Tel.Event
module Sink = Tel.Sink
module Export = Tel.Export

(* ----- labels ----- *)

let test_label_basics () =
  let l = Label.v [ ("queue", "b0"); ("flow", "3") ] in
  Alcotest.(check string)
    "sorted by key" "flow=3,queue=b0" (Label.to_string l);
  Alcotest.(check bool) "none is empty" true (Label.is_empty Label.none);
  Alcotest.(check bool)
    "order-insensitive equality" true
    ((l :> (string * string) list)
    = (Label.v [ ("flow", "3"); ("queue", "b0") ] :> (string * string) list))

let test_label_validation () =
  let raises name pairs =
    match Label.v pairs with
    | (_ : Label.t) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "duplicate key" [ ("a", "1"); ("a", "2") ];
  raises "empty key" [ ("", "1") ];
  raises "equals in key" [ ("a=b", "1") ];
  raises "comma in value" [ ("a", "1,2") ];
  raises "newline in value" [ ("a", "1\n2") ]

(* ----- registry ----- *)

let test_registry_resolve () =
  let r = Registry.create () in
  let c1 = Registry.counter r ~subsystem:"net" ~name:"drops" () in
  let c2 = Registry.counter r ~subsystem:"net" ~name:"drops" () in
  Metric.Counter.inc c1;
  Alcotest.(check int) "same handle" 1 (Metric.Counter.value c2);
  let labels = Label.v [ ("queue", "b0") ] in
  let c3 = Registry.counter r ~labels ~subsystem:"net" ~name:"drops" () in
  Metric.Counter.inc c3;
  Metric.Counter.inc c3;
  Alcotest.(check int) "labelled is distinct" 2 (Metric.Counter.value c3);
  Alcotest.(check int) "unlabelled untouched" 1 (Metric.Counter.value c1);
  Alcotest.(check int) "two keys" 2 (Registry.cardinal r);
  Alcotest.(check (list string))
    "full names sorted"
    [ "net/drops"; "net/drops{queue=b0}" ]
    (List.map fst (Registry.to_alist r))

let test_registry_type_clash () =
  let r = Registry.create () in
  ignore (Registry.counter r ~subsystem:"s" ~name:"n" ());
  match Registry.gauge r ~subsystem:"s" ~name:"n" () with
  | (_ : Metric.Gauge.t) ->
    Alcotest.fail "type clash: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_registry_reserved_names () =
  let r = Registry.create () in
  match Registry.counter r ~subsystem:"a/b" ~name:"n" () with
  | (_ : Metric.Counter.t) ->
    Alcotest.fail "slash in subsystem: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ----- counter / gauge ----- *)

let test_counter_gauge () =
  let c = Metric.Counter.create () in
  Metric.Counter.inc c;
  Metric.Counter.inc ~by:5 c;
  Alcotest.(check int) "counter" 6 (Metric.Counter.value c);
  (match Metric.Counter.inc ~by:(-1) c with
  | () -> Alcotest.fail "negative increment: expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let g = Metric.Gauge.create () in
  Metric.Gauge.set g 2.5;
  Metric.Gauge.set g 7.25;
  Alcotest.(check (float 0.)) "gauge holds last" 7.25 (Metric.Gauge.value g);
  Alcotest.(check int) "gauge counts samples" 2 (Metric.Gauge.samples g)

(* ----- histogram vs exact distribution ----- *)

let test_histogram_percentiles () =
  let h = Metric.Histogram.create () in
  let d = Xmp_stats.Distribution.create () in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 10_000 do
    (* log-uniform over [1, 10^4], the shape of RTT/queue samples *)
    let v = 10. ** (Random.State.float rng 4.) in
    Metric.Histogram.add h v;
    Xmp_stats.Distribution.add d v
  done;
  Alcotest.(check int) "count" 10_000 (Metric.Histogram.count h);
  List.iter
    (fun p ->
      let approx = Metric.Histogram.percentile h p in
      let exact = Xmp_stats.Distribution.percentile d p in
      let rel = Float.abs (approx -. exact) /. exact in
      if rel > 0.06 then
        Alcotest.failf "p%.0f: histogram %.3f vs exact %.3f (rel %.3f)" p
          approx exact rel)
    [ 10.; 50.; 90.; 99. ];
  Alcotest.(check (float 1e-9))
    "min exact" (Xmp_stats.Distribution.percentile d 0.)
    (Metric.Histogram.min_value h);
  Alcotest.(check (float 1e-9))
    "max exact" (Xmp_stats.Distribution.max d) (Metric.Histogram.max_value h)

(* ----- flight recorder ring ----- *)

let ev i = Event.Cwnd_change { flow = 1; subflow = 0; cwnd = float_of_int i }

let test_recorder_wraparound () =
  let r = Recorder.create ~capacity:4 in
  for i = 1 to 10 do
    Recorder.record r ~time_ns:i (ev i)
  done;
  Alcotest.(check int) "length is capacity" 4 (Recorder.length r);
  Alcotest.(check int) "total counts all" 10 (Recorder.total r);
  Alcotest.(check int) "dropped = overflow" 6 (Recorder.dropped r);
  Alcotest.(check (list int))
    "oldest-first survivors" [ 7; 8; 9; 10 ]
    (let acc = ref [] in
     Recorder.iter (fun e -> acc := e.Recorder.time_ns :: !acc) r;
     List.rev !acc);
  match Recorder.create ~capacity:0 with
  | (_ : Recorder.t) ->
    Alcotest.fail "capacity 0: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* The ring starts empty and grows (64, 128, ...) up to its capacity.
   An eager ring of [capacity] slots is the reference: at every step of
   filling and wrapping, [iter] order, [length], [total] and [dropped]
   must match it. Capacities straddle the growth steps. *)
let test_recorder_growth_matches_eager () =
  let eager capacity =
    let ring = Array.make capacity (-1) and next = ref 0 and total = ref 0 in
    let record i =
      ring.(!next) <- i;
      next := (!next + 1) mod capacity;
      incr total
    in
    let view () =
      let n = Int.min !total capacity in
      let start = if !total <= capacity then 0 else !next in
      ( List.init n (fun i -> ring.((start + i) mod capacity)),
        n,
        !total,
        Int.max 0 (!total - capacity) )
    in
    (record, view)
  in
  List.iter
    (fun capacity ->
      let r = Recorder.create ~capacity in
      let record, view = eager capacity in
      let check step =
        let acc = ref [] in
        Recorder.iter (fun e -> acc := e.Recorder.time_ns :: !acc) r;
        let name = Printf.sprintf "capacity %d, %s" capacity step in
        Alcotest.(check (pair (list int) (list int)))
          name
          (let l, n, total, dropped = view () in
           (l, [ n; total; dropped ]))
          ( List.rev !acc,
            [ Recorder.length r; Recorder.total r; Recorder.dropped r ] )
      in
      check "empty";
      for i = 1 to (3 * capacity) + 5 do
        Recorder.record r ~time_ns:i (ev i);
        record i;
        if i mod 7 = 0 || i = capacity || i = capacity + 1 then
          check (Printf.sprintf "%d recorded" i)
      done;
      check "full")
    [ 1; 2; 63; 64; 65; 100; 128; 129; 300 ]

(* ----- sinks ----- *)

let test_disabled_sink_noop () =
  Alcotest.(check bool) "null inactive" false (Sink.active Sink.null);
  Sink.event Sink.null ~time_ns:5 (ev 1);
  Alcotest.(check int)
    "null records nothing" 0
    (Recorder.total (Sink.recorder Sink.null));
  Alcotest.(check int)
    "null registry stays empty" 0
    (Registry.cardinal (Sink.registry Sink.null))

let test_enabled_sink_records () =
  let s = Sink.create ~recorder_capacity:8 () in
  Alcotest.(check bool) "active" true (Sink.active s);
  Sink.event s ~time_ns:3 (ev 1);
  Alcotest.(check int) "recorded" 1 (Recorder.total (Sink.recorder s))

(* ----- export formats ----- *)

let test_export_events () =
  let r = Recorder.create ~capacity:8 in
  Recorder.record r ~time_ns:1_000 (ev 1);
  Recorder.record r ~time_ns:2_000
    (Event.Ce_mark { queue = "b0"; flow = 2; subflow = 1; depth = 11 });
  let csv = Export.events_csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" Event.csv_header (List.hd lines);
  let jsonl = Export.events_jsonl r in
  Alcotest.(check int)
    "jsonl rows" 2
    (List.length (String.split_on_char '\n' (String.trim jsonl)));
  let only_marks =
    Export.events_csv ~keep:(fun e -> Event.kind e = "ce-mark") r
  in
  Alcotest.(check int)
    "filtered to one row" 2
    (List.length (String.split_on_char '\n' (String.trim only_marks)))

let test_export_metrics () =
  let r = Registry.create () in
  let c = Registry.counter r ~subsystem:"net" ~name:"drops" () in
  Metric.Counter.inc ~by:3 c;
  let h = Registry.histogram r ~subsystem:"transport" ~name:"rtt_us" () in
  Metric.Histogram.add h 100.;
  let csv = Export.metrics_csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "metric,type,count,value,mean,p50,p99,max"
    (List.hd lines);
  List.iter
    (fun line ->
      Alcotest.(check int)
        ("8 columns: " ^ line)
        8
        (List.length (String.split_on_char ',' line)))
    lines;
  Alcotest.(check int)
    "jsonl rows" 2
    (List.length
       (String.split_on_char '\n' (String.trim (Export.metrics_jsonl r))))

(* ----- telemetry does not perturb the simulation ----- *)

let quick_fig1 telemetry =
  Xmp_experiments.Fig1.run ~scale:0.02 ~seed:Xmp_experiments.Fig1.seed
    ~faults:Xmp_engine.Fault_spec.empty ~telemetry
    { Xmp_experiments.Fig1.dctcp = false; k = 10 }

let test_fig_run_unperturbed () =
  let off = quick_fig1 Sink.null in
  let sink = Sink.create () in
  let on = quick_fig1 sink in
  Alcotest.(check (float 1e-12))
    "utilization identical" off.Xmp_experiments.Fig1.utilization
    on.Xmp_experiments.Fig1.utilization;
  List.iter2
    (fun (n_off, r_off) (n_on, r_on) ->
      Alcotest.(check string) "series name" n_off n_on;
      Alcotest.(check (array (float 1e-12))) ("rates " ^ n_off) r_off r_on)
    off.Xmp_experiments.Fig1.rates on.Xmp_experiments.Fig1.rates;
  (* and the instrumented run actually recorded the hot paths *)
  let kinds = ref [] in
  Recorder.iter
    (fun e ->
      let k = Event.kind e.Recorder.event in
      if not (List.mem k !kinds) then kinds := k :: !kinds)
    (Sink.recorder sink);
  Alcotest.(check bool)
    "saw ce-mark events" true (List.mem "ce-mark" !kinds);
  Alcotest.(check bool)
    "saw cwnd-change events" true
    (List.mem "cwnd-change" !kinds);
  Alcotest.(check bool)
    "metrics registered" true
    (Registry.cardinal (Sink.registry sink) > 0);
  Alcotest.(check bool)
    "csv export non-empty" true
    (String.length (Export.events_csv (Sink.recorder sink)) > 0)

let suite =
  [
    Alcotest.test_case "label basics" `Quick test_label_basics;
    Alcotest.test_case "label validation" `Quick test_label_validation;
    Alcotest.test_case "registry resolve" `Quick test_registry_resolve;
    Alcotest.test_case "registry type clash" `Quick test_registry_type_clash;
    Alcotest.test_case "registry reserved names" `Quick
      test_registry_reserved_names;
    Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "recorder wraparound" `Quick test_recorder_wraparound;
    Alcotest.test_case "recorder growth matches an eager ring" `Quick
      test_recorder_growth_matches_eager;
    Alcotest.test_case "disabled sink no-op" `Quick test_disabled_sink_noop;
    Alcotest.test_case "enabled sink records" `Quick
      test_enabled_sink_records;
    Alcotest.test_case "export events" `Quick test_export_events;
    Alcotest.test_case "export metrics" `Quick test_export_metrics;
    Alcotest.test_case "telemetry does not perturb runs" `Quick
      test_fig_run_unperturbed;
  ]
