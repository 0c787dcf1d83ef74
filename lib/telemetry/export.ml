(* Structured export of a run's telemetry.

   All functions build strings; writing them somewhere is the caller's
   business (the [xmp_sim trace] subcommand writes files, tests compare
   in memory). Output order is deterministic: recorder order for events,
   sorted full-name order for metrics. *)

let events_csv ?(keep = fun _ -> true) recorder =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf Event.csv_header;
  Buffer.add_char buf '\n';
  Recorder.iter
    (fun { Recorder.time_ns; event } ->
      if keep event then begin
        Buffer.add_string buf (Event.to_csv ~time_ns event);
        Buffer.add_char buf '\n'
      end)
    recorder;
  Buffer.contents buf

let events_jsonl ?(keep = fun _ -> true) recorder =
  let buf = Buffer.create 4096 in
  Recorder.iter
    (fun { Recorder.time_ns; event } ->
      if keep event then begin
        Buffer.add_string buf (Event.to_json ~time_ns event);
        Buffer.add_char buf '\n'
      end)
    recorder;
  Buffer.contents buf

let metrics_csv registry =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "metric,type,count,value,mean,p50,p99,max";
  Buffer.add_char buf '\n';
  Registry.iter
    (fun name m ->
      let row =
        match m with
        | Registry.Counter c ->
          Printf.sprintf "%s,counter,%d,%d,,,," name
            (Metric.Counter.value c) (Metric.Counter.value c)
        | Registry.Gauge g ->
          Printf.sprintf "%s,gauge,%d,%.12g,,,," name (Metric.Gauge.samples g)
            (Metric.Gauge.value g)
        | Registry.Histogram h ->
          Printf.sprintf "%s,histogram,%d,%.12g,%.12g,%.12g,%.12g,%.12g" name
            (Metric.Histogram.count h) (Metric.Histogram.sum h)
            (Metric.Histogram.mean h)
            (Metric.Histogram.percentile h 50.)
            (Metric.Histogram.percentile h 99.)
            (Metric.Histogram.max_value h)
      in
      Buffer.add_string buf row;
      Buffer.add_char buf '\n')
    registry;
  Buffer.contents buf

let metrics_jsonl registry =
  let buf = Buffer.create 1024 in
  Registry.iter
    (fun name m ->
      let line =
        match m with
        | Registry.Counter c ->
          Printf.sprintf
            "{\"metric\":\"%s\",\"type\":\"counter\",\"value\":%d}"
            (Event.json_escape name) (Metric.Counter.value c)
        | Registry.Gauge g ->
          Printf.sprintf
            "{\"metric\":\"%s\",\"type\":\"gauge\",\"value\":%.12g,\"samples\":%d}"
            (Event.json_escape name) (Metric.Gauge.value g)
            (Metric.Gauge.samples g)
        | Registry.Histogram h ->
          Printf.sprintf
            "{\"metric\":\"%s\",\"type\":\"histogram\",\"count\":%d,\"sum\":%.12g,\"mean\":%.12g,\"p50\":%.12g,\"p99\":%.12g,\"min\":%.12g,\"max\":%.12g}"
            (Event.json_escape name) (Metric.Histogram.count h)
            (Metric.Histogram.sum h) (Metric.Histogram.mean h)
            (Metric.Histogram.percentile h 50.)
            (Metric.Histogram.percentile h 99.)
            (Metric.Histogram.min_value h)
            (Metric.Histogram.max_value h)
      in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    registry;
  Buffer.contents buf
