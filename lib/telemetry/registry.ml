(* Central metrics registry.

   Metrics are keyed by "subsystem/name{labels}"; the first lookup creates
   the metric and later lookups with the same key return the same instance,
   so instrumentation sites can resolve their handles once (at setup) or on
   every call with the same result. *)

type metric =
  | Counter of Metric.Counter.t
  | Gauge of Metric.Gauge.t
  | Histogram of Metric.Histogram.t

type t = { metrics : (string, metric) Hashtbl.t }

let create () = { metrics = Hashtbl.create 64 }

let metric_type = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let check_component ~what s =
  if String.length s = 0 then
    invalid_arg (Printf.sprintf "Telemetry.Registry: empty %s" what);
  String.iter
    (fun c ->
      match c with
      | '=' | ',' | '{' | '}' | '"' | '\n' | '/' ->
        invalid_arg
          (Printf.sprintf "Telemetry.Registry: %s %S contains reserved %C"
             what s c)
      | _ -> ())
    s

let full_name ~subsystem ~name ~labels =
  check_component ~what:"subsystem" subsystem;
  check_component ~what:"name" name;
  let base = subsystem ^ "/" ^ name in
  if Label.is_empty labels then base
  else base ^ "{" ^ Label.to_string labels ^ "}"

let resolve t ~subsystem ~name ~labels ~make ~cast =
  let key = full_name ~subsystem ~name ~labels in
  match Hashtbl.find_opt t.metrics key with
  | Some m -> (
    match cast m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf
           "Telemetry.Registry: %s already registered as a %s" key
           (metric_type m)))
  | None ->
    let m = make () in
    Hashtbl.add t.metrics key m;
    (match cast m with
    | Some v -> v
    | None -> assert false)

let counter t ?(labels = Label.none) ~subsystem ~name () =
  resolve t ~subsystem ~name ~labels
    ~make:(fun () -> Counter (Metric.Counter.create ()))
    ~cast:(function Counter c -> Some c | _ -> None)

let gauge t ~subsystem ~name () =
  resolve t ~subsystem ~name ~labels:Label.none
    ~make:(fun () -> Gauge (Metric.Gauge.create ()))
    ~cast:(function Gauge g -> Some g | _ -> None)

let histogram t ?(labels = Label.none) ~subsystem ~name () =
  resolve t ~subsystem ~name ~labels
    ~make:(fun () -> Histogram (Metric.Histogram.create ()))
    ~cast:(function Histogram h -> Some h | _ -> None)

let cardinal t = Hashtbl.length t.metrics

let to_alist t =
  Hashtbl.fold (fun k m acc -> (k, m) :: acc) t.metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let iter f t = List.iter (fun (k, m) -> f k m) (to_alist t)
