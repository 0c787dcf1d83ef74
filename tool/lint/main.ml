(* xmplint driver.

   Walks the requested directories, lints every .ml/.mli through
   {!Xmplint_lib.Rules}, then runs the whole-tree passes (missing-mli,
   unused-export) over them all, and renders findings as text or JSON. With
   [--baseline FILE] the committed ratchet is applied: pinned findings
   are tolerated (and listed as suppressed); any growth in a rule's
   count per file fails the run, and so does a stale pin, one above the
   count found. [--write-baseline FILE] regenerates the
   pin file from the current findings.

   Exit status: 0 clean (or exactly within baseline), 1 findings /
   ratchet violations / stale pins, 2 usage or I/O error. *)

open Xmplint_lib

let usage =
  "xmplint [--root DIR] [--format text|json] [--baseline FILE]\n\
  \        [--write-baseline FILE] DIR...\n"

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let rec walk dir acc =
  let entries = Array.to_list (Sys.readdir dir) in
  List.fold_left
    (fun acc name ->
      if name = "" || name.[0] = '.' || name.[0] = '_' then acc
      else begin
        let path = if dir = "." then name else Filename.concat dir name in
        if Sys.is_directory path then walk path acc
        else if
          Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
        then path :: acc
        else acc
      end)
    acc
    (List.sort String.compare entries)

let () =
  let root = ref "." in
  let format = ref `Text in
  let baseline_file = ref None in
  let write_baseline = ref None in
  let dirs = ref [] in
  let rec parse = function
    | "--root" :: dir :: rest ->
      root := dir;
      parse rest
    | "--format" :: fmt :: rest ->
      (match fmt with
      | "text" -> format := `Text
      | "json" -> format := `Json
      | other ->
        Printf.eprintf "xmplint: unknown format %S (want text or json)\n" other;
        exit 2);
      parse rest
    | "--baseline" :: file :: rest ->
      baseline_file := Some file;
      parse rest
    | "--write-baseline" :: file :: rest ->
      write_baseline := Some file;
      parse rest
    | "--help" :: _ ->
      print_string usage;
      exit 0
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      Printf.eprintf "xmplint: unknown option %s\n%s" arg usage;
      exit 2
    | dir :: rest ->
      dirs := dir :: !dirs;
      parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dirs = List.rev !dirs in
  if dirs = [] then begin
    prerr_string usage;
    exit 2
  end;
  (* resolve the baseline before chdir so relative paths keep working *)
  let baseline =
    match !baseline_file with
    | None -> None
    | Some file -> (
      match Baseline.load file with
      | Ok entries -> Some entries
      | Error e ->
        Printf.eprintf "xmplint: cannot load baseline: %s\n" e;
        exit 2)
  in
  Sys.chdir !root;
  let files =
    List.concat_map
      (fun d ->
        if Sys.file_exists d && Sys.is_directory d then List.rev (walk d [])
        else begin
          Printf.eprintf "xmplint: no such directory: %s\n" d;
          exit 2
        end)
      dirs
  in
  let rep = Report.create () in
  let sources = List.map (fun path -> (path, read_file path)) files in
  List.iter (fun (path, src) -> Rules.lint_source rep ~path src) sources;
  Rules.check_mli_presence rep files;
  Rules.check_unused_exports rep sources;
  let all = Report.sorted rep in
  (match !write_baseline with
  | Some file ->
    Baseline.write file all;
    Printf.eprintf "xmplint: wrote baseline (%d finding(s)) to %s\n"
      (List.length all) file;
    exit 0
  | None -> ());
  match baseline with
  | None -> (
    (* no ratchet: every finding fails the run *)
    match !format with
    | `Json ->
      print_string (Report.to_json ~files:(List.length files) all);
      if all = [] then exit 0 else exit 1
    | `Text -> (
      Report.print_text all;
      match all with
      | [] ->
        Printf.printf "xmplint: %d files clean\n" (List.length files);
        exit 0
      | _ ->
        Printf.printf "xmplint: %d finding(s)\n" (List.length all);
        exit 1))
  | Some entries -> (
    let verdict = Baseline.apply entries all in
    let ok = Baseline.clean verdict in
    match !format with
    | `Json ->
      print_string
        (Report.to_json
           ~ratchet:(Baseline.verdict_to_json verdict)
           ~files:(List.length files) all);
      if ok then exit 0 else exit 1
    | `Text ->
      List.iter
        (fun v -> List.iter (fun f -> print_endline (Report.finding_to_string f)) v.Baseline.v_findings)
        verdict.Baseline.violations;
      Baseline.print_verdict_text
        ~baseline:(Option.value !baseline_file ~default:"")
        verdict;
      if ok then begin
        Printf.printf
          "xmplint: %d files clean (%d baseline-pinned finding(s))\n"
          (List.length files) verdict.Baseline.suppressed;
        exit 0
      end
      else begin
        Printf.printf
          "xmplint: ratchet failed: %d rule/file pair(s) grew, %d stale \
           pin(s)\n"
          (List.length verdict.Baseline.violations)
          (List.length verdict.Baseline.stale);
        exit 1
      end)
