(* Canonical label sets for telemetry metrics.

   A label set is a sorted association list of (key, value) pairs; sorting
   at construction makes the rendered form ("flow=3,subflow=1") a stable
   identity usable as part of a registry key. *)

type t = (string * string) list

let none = []

let check_component ~what s =
  if String.length s = 0 then
    invalid_arg (Printf.sprintf "Telemetry.Label: empty %s" what);
  String.iter
    (fun c ->
      match c with
      | '=' | ',' | '{' | '}' | '"' | '\n' ->
        invalid_arg
          (Printf.sprintf "Telemetry.Label: %s %S contains reserved %C" what s
             c)
      | _ -> ())
    s

let v pairs =
  List.iter
    (fun (k, value) ->
      check_component ~what:"key" k;
      check_component ~what:"value" value)
    pairs;
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) pairs
  in
  let rec check_dups = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.equal a b then
        invalid_arg
          (Printf.sprintf "Telemetry.Label: duplicate key %S" a);
      check_dups rest
    | [] | [ _ ] -> ()
  in
  check_dups sorted;
  sorted

let is_empty t = t = []

let to_string t =
  String.concat "," (List.map (fun (k, value) -> k ^ "=" ^ value) t)


