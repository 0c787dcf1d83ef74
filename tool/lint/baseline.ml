(* Baseline ratchet: a committed inventory of waived findings.

   The baseline file pins, per (path, rule), how many findings are
   tolerated. Linting against a baseline suppresses exactly that many
   findings for each key; anything beyond the pinned count is a ratchet
   violation and fails the run, naming the rule and the offending
   declarations. Counts only ever go down: when a pinned finding is
   fixed, the entry that now pins more findings than remain is stale,
   and a stale entry fails the run too, so the baseline is tightened in
   the change that fixed the finding. Left loose, it would let a new
   finding of the same rule in the same file pass.

   The file format is a strict subset of JSON:

     { "version": 2,
       "pinned": [ { "path": "lib/a.ml", "rule": "unit-suffix", "count": 2 } ] }

   parsed by the minimal recursive-descent reader below (the tool is
   stdlib-only by design; see DESIGN.md "Static analysis"). *)

type entry = { b_path : string; b_rule : string; b_count : int }

type violation = {
  v_path : string;
  v_rule : string;
  v_allowed : int;
  v_found : int;
  v_findings : Report.finding list;  (** every current finding for the key *)
}

type verdict = {
  violations : violation list;
  stale : (string * string * int * int) list;
      (** (path, rule, pinned, found) where found < pinned *)
  suppressed : int;  (** findings absorbed by baseline pins *)
}

(* ------------------------------------------------------------------ *)
(* Minimal JSON reader                                                  *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else error (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          if !pos >= n then error "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 >= n then error "truncated \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error "bad \\u escape"
            in
            (* ASCII range only — enough for paths and rule ids *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_char buf '?';
            pos := !pos + 4
          | c -> error (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> error "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> error "expected ',' or ']'"
        in
        List (elems [])
      end
    | Some 't' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
        pos := !pos + 4;
        Bool true
      end
      else error "bad literal"
    | Some 'f' ->
      if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
        pos := !pos + 5;
        Bool false
      end
      else error "bad literal"
    | Some 'n' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
        pos := !pos + 4;
        Null
      end
      else error "bad literal"
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        advance ()
      done;
      if !pos = start then error "unexpected character";
      let lit = String.sub s start (!pos - start) in
      (match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> error "bad number"))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then error "trailing content";
  v

(* ------------------------------------------------------------------ *)
(* Loading / writing                                                    *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let load path : (entry list, string) result =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | src -> (
    match parse_json src with
    | exception Parse_error e -> Error (path ^ ": " ^ e)
    | json -> (
      match member "pinned" json with
      | Some (List entries) -> (
        let parse_entry = function
          | Obj _ as o -> (
            match (member "path" o, member "rule" o, member "count" o) with
            | Some (Str p), Some (Str r), Some (Int c) when c >= 0 ->
              Ok { b_path = p; b_rule = r; b_count = c }
            | _ -> Error "pinned entry needs path/rule/count fields")
          | _ -> Error "pinned entry is not an object"
        in
        let rec all acc = function
          | [] -> Ok (List.rev acc)
          | e :: rest -> (
            match parse_entry e with
            | Ok entry -> all (entry :: acc) rest
            | Error _ as err -> err)
        in
        match all [] entries with
        | Ok entries -> Ok entries
        | Error e -> Error (path ^ ": " ^ e))
      | Some _ -> Error (path ^ ": \"pinned\" is not an array")
      | None -> Error (path ^ ": missing \"pinned\" array")))

let write path findings =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (f : Report.finding) ->
      let key = (f.Report.path, f.Report.rule) in
      Hashtbl.replace counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    findings;
  let entries =
    Hashtbl.fold (fun (p, r) c acc -> (p, r, c) :: acc) counts []
    |> List.sort compare
  in
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc
    "  \"comment\": \"xmplint baseline ratchet: pinned pre-existing \
     findings. A rule's count per file may shrink (then tighten this file) \
     but never grow; dune build @lint and CI diff the current findings \
     against these entries.\",\n";
  output_string oc "  \"version\": 2,\n";
  output_string oc "  \"pinned\": [\n";
  List.iteri
    (fun i (p, r, c) ->
      output_string oc
        (Printf.sprintf "    { \"path\": %S, \"rule\": %S, \"count\": %d }%s\n"
           p r c
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  output_string oc "  ]\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Ratchet comparison                                                   *)

let apply (baseline : entry list) (findings : Report.finding list) : verdict =
  let key_of (f : Report.finding) = (f.Report.path, f.Report.rule) in
  let found = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let k = key_of f in
      Hashtbl.replace found k
        (f :: Option.value ~default:[] (Hashtbl.find_opt found k)))
    findings;
  let violations = ref [] in
  let stale = ref [] in
  let suppressed = ref 0 in
  let pinned_count path rule =
    List.fold_left
      (fun acc e ->
        if e.b_path = path && e.b_rule = rule then acc + e.b_count else acc)
      0 baseline
  in
  (* keys with current findings *)
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) found [] |> List.sort compare
  in
  List.iter
    (fun (path, rule) ->
      let fs = List.rev (Hashtbl.find found (path, rule)) in
      let n = List.length fs in
      let allowed = pinned_count path rule in
      if n > allowed then
        violations :=
          {
            v_path = path;
            v_rule = rule;
            v_allowed = allowed;
            v_found = n;
            v_findings = fs;
          }
          :: !violations
      else begin
        suppressed := !suppressed + n;
        if n < allowed then stale := (path, rule, allowed, n) :: !stale
      end)
    keys;
  (* pinned keys with no current findings at all are stale too *)
  List.iter
    (fun e ->
      if e.b_count > 0 && not (Hashtbl.mem found (e.b_path, e.b_rule)) then
        stale := (e.b_path, e.b_rule, e.b_count, 0) :: !stale)
    baseline;
  {
    violations = List.rev !violations;
    stale = List.sort compare !stale;
    suppressed = !suppressed;
  }

let clean v = v.violations = [] && v.stale = []

let verdict_to_json v =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"clean\": %b,\n    \"suppressed\": %d,\n"
       (clean v) v.suppressed);
  Buffer.add_string buf "    \"violations\": [";
  List.iteri
    (fun i viol ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n      ";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"path\": \"%s\", \"rule\": \"%s\", \"allowed\": %d, \"found\": \
            %d, \"findings\": [%s]}"
           (Report.json_escape viol.v_path)
           (Report.json_escape viol.v_rule)
           viol.v_allowed viol.v_found
           (String.concat ", "
              (List.map Report.finding_to_json viol.v_findings))))
    v.violations;
  if v.violations <> [] then Buffer.add_string buf "\n    ";
  Buffer.add_string buf "],\n";
  Buffer.add_string buf "    \"stale\": [";
  List.iteri
    (fun i (p, r, pinned, found) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n      ";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"path\": \"%s\", \"rule\": \"%s\", \"pinned\": %d, \"found\": %d}"
           (Report.json_escape p) (Report.json_escape r) pinned found))
    v.stale;
  if v.stale <> [] then Buffer.add_string buf "\n    ";
  Buffer.add_string buf "]\n  }";
  Buffer.contents buf

let print_verdict_text ~baseline v =
  List.iter
    (fun viol ->
      Printf.printf
        "xmplint: ratchet violation: [%s] in %s: %d finding(s), baseline \
         allows %d\n"
        viol.v_rule viol.v_path viol.v_found viol.v_allowed;
      List.iter
        (fun f -> print_endline ("  " ^ Report.finding_to_string f))
        viol.v_findings)
    v.violations;
  List.iter
    (fun (p, r, pinned, found) ->
      Printf.printf
        "xmplint: stale baseline entry: [%s] in %s pins %d but only %d \
         found — tighten %s\n"
        r p pinned found baseline)
    v.stale
