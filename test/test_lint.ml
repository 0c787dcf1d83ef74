(* Tests for the xmplint analysis engine (tool/lint as Xmplint_lib):
   lexer token/position/pragma behaviour, declaration grouping, the three
   declaration-level passes against their fixture files, a self-lint of
   the linter's own sources, and the baseline ratchet — including an
   end-to-end run of main.exe proving an injected finding exits nonzero
   and the JSON diff names the rule. *)

module Lexer = Xmplint_lib.Lexer
module Rules = Xmplint_lib.Rules
module Report = Xmplint_lib.Report
module Baseline = Xmplint_lib.Baseline

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Under `dune runtest` the cwd is _build/default/test (the declared deps
   place tool/lint alongside); under `dune exec` from the repo root it is
   the root itself. Resolve whichever layout we are in. *)
let tool_dir =
  if Sys.file_exists "../tool/lint" then "../tool/lint" else "tool/lint"

let fixture_dir = Filename.concat tool_dir "fixtures/lib"

let main_exe =
  let candidates =
    [ Filename.concat tool_dir "main.exe"; "_build/default/tool/lint/main.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

(* Lint one fixture as if it lived under lib/ so lib-scoped rules fire. *)
let lint_fixture name =
  let rep = Report.create () in
  Rules.lint_source rep
    ~path:("lib/" ^ name)
    (read_file (Filename.concat fixture_dir name));
  Report.sorted rep

let rule_decls rule findings =
  List.filter_map
    (fun (f : Report.finding) -> if f.rule = rule then f.decl else None)
    findings

let rule_count rule findings =
  List.length
    (List.filter (fun (f : Report.finding) -> f.Report.rule = rule) findings)

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_positions () =
  let lx = Lexer.lex ~path:"lib/x.ml" "let a = 1\nlet b_ns = Time.to_ns t\n" in
  let tok i = lx.Lexer.tokens.(i) in
  Alcotest.(check int) "token count" 9 (Array.length lx.Lexer.tokens);
  (match (tok 0).Lexer.kind with
  | Lexer.Keyword "let" -> ()
  | _ -> Alcotest.fail "first token should be Keyword let");
  Alcotest.(check int) "line of first" 1 (tok 0).Lexer.line;
  Alcotest.(check int) "col of first" 0 (tok 0).Lexer.col;
  (match (tok 5).Lexer.kind with
  | Lexer.Ident "b_ns" -> ()
  | _ -> Alcotest.fail "b_ns ident expected");
  Alcotest.(check int) "line 2" 2 (tok 5).Lexer.line;
  Alcotest.(check int) "col of b_ns" 4 (tok 5).Lexer.col;
  match (tok 7).Lexer.kind with
  | Lexer.Ident "Time.to_ns" -> ()
  | _ -> Alcotest.fail "dotted path should lex as one Ident"

let test_lexer_strings_comments () =
  let src =
    "let s = \"Obj.magic inside a string\"\n\
     (* Obj.magic inside a comment *)\n\
     let q = {x|Obj.magic quoted|x}\n"
  in
  let lx = Lexer.lex ~path:"lib/x.ml" src in
  Array.iter
    (fun (t : Lexer.token) ->
      match t.Lexer.kind with
      | Lexer.Ident "Obj.magic" -> Alcotest.fail "Obj.magic leaked from text"
      | _ -> ())
    lx.Lexer.tokens;
  let strs =
    Array.to_list lx.Lexer.tokens
    |> List.filter (fun (t : Lexer.token) -> t.Lexer.kind = Lexer.Str)
  in
  Alcotest.(check int) "two string tokens" 2 (List.length strs)

let test_lexer_pragmas () =
  let src =
    "(* xmplint: allow mutable-global — justified because reasons *)\n\
     let a = ref 0\n\
     (* xmplint: allow unit-suffix *)\n\
     let b = 1\n"
  in
  let lx = Lexer.lex ~path:"lib/x.ml" src in
  Alcotest.(check int) "two pragmas" 2 (List.length lx.Lexer.pragmas);
  Alcotest.(check bool) "waived on next line" true
    (Lexer.waived lx ~line:2 ~rule:"mutable-global");
  Alcotest.(check bool) "justified" true
    (Lexer.waived_justified lx ~line:2 ~rule:"mutable-global");
  Alcotest.(check bool) "unit-suffix pragma has no justification" false
    (Lexer.waived_justified lx ~line:4 ~rule:"unit-suffix");
  Alcotest.(check bool) "still a plain waiver" true
    (Lexer.waived lx ~line:4 ~rule:"unit-suffix");
  Alcotest.(check bool) "rule mismatch does not waive" false
    (Lexer.waived lx ~line:2 ~rule:"unit-suffix")

let test_items () =
  let src =
    "let a = 1\n\n\
     let f x =\n  let inner = ref 0 in\n  !inner + x\n\n\
     type t = { mutable n : int }\n\n\
     module M = struct\n  let hidden = 2\nend\n"
  in
  let lx = Lexer.lex ~path:"lib/x.ml" src in
  let items = Lexer.items lx in
  let heads = List.map (fun (it : Lexer.item) -> it.Lexer.head) items in
  Alcotest.(check (list string))
    "toplevel heads" [ "let"; "let"; "type"; "module" ] heads;
  let names =
    List.map
      (fun (it : Lexer.item) ->
        Option.value ~default:"?" it.Lexer.name)
      items
  in
  Alcotest.(check (list string)) "names" [ "a"; "f"; "t"; "M" ] names;
  (* the expression-level [let inner] must not open a toplevel item *)
  Alcotest.(check int) "4 items" 4 (List.length items)

(* ------------------------------------------------------------------ *)
(* New passes on fixtures *)

let test_mutable_global_fixture () =
  let findings = lint_fixture "mutable_global_cases.ml" in
  let decls = rule_decls "mutable-global" findings in
  Alcotest.(check (list string))
    "flagged declarations"
    [
      "hits"; "table"; "scratch"; "slots"; "shared_cell"; "annotated";
      "unjustified";
    ]
    decls;
  List.iter
    (fun negative ->
      Alcotest.(check bool)
        (negative ^ " not flagged")
        false
        (List.mem negative decls))
    [ "make_counter"; "fresh_table"; "thunk"; "limit"; "names";
      "safe_counter"; "interned" ]

let test_unit_suffix_fixture () =
  let findings = lint_fixture "unit_suffix_cases.ml" in
  let decls = rule_decls "unit-suffix" findings in
  Alcotest.(check (list string))
    "flagged declarations" [ "total_wait"; "over_quota"; "drift" ] decls;
  Alcotest.(check bool) "pragma waives" false (List.mem "waived_mix" decls);
  Alcotest.(check bool) "same unit ok" false (List.mem "sum_ns" decls);
  Alcotest.(check bool) "literal converts" false (List.mem "total_ns" decls)

let test_hashtbl_order_fixture () =
  let findings = lint_fixture "hashtbl_order_cases.ml" in
  let decls = rule_decls "hashtbl-order" findings in
  Alcotest.(check (list string)) "flagged declarations" [ "dump"; "keys" ] decls;
  List.iter
    (fun negative ->
      Alcotest.(check bool)
        (negative ^ " not flagged")
        false
        (List.mem negative decls))
    [ "sorted_keys"; "sorted_pairs"; "list_iter"; "restore" ]

let test_packet_release_fixtures () =
  let leak = lint_fixture "packet_release_leak.ml" in
  Alcotest.(check int) "leaking file flagged once" 1
    (rule_count "packet-release" leak);
  let balanced = lint_fixture "packet_release_balanced.ml" in
  Alcotest.(check int) "balanced file clean" 0
    (rule_count "packet-release" balanced);
  (* the rule is lib-scoped: tests build throwaway packets freely *)
  let rep = Report.create () in
  Rules.lint_source rep ~path:"test/packet_release_leak.ml"
    (read_file (Filename.concat fixture_dir "packet_release_leak.ml"));
  Alcotest.(check int) "test/ exempt" 0
    (rule_count "packet-release" (Report.sorted rep));
  (* the allowlisted hand-off path acquires without releasing by design:
     the same leaking source is clean when attributed to it *)
  let rep = Report.create () in
  Rules.lint_source rep ~path:"lib/transport/tcp.ml"
    (read_file (Filename.concat fixture_dir "packet_release_leak.ml"));
  Alcotest.(check int) "hand-off allowlist suppresses" 0
    (rule_count "packet-release" (Report.sorted rep))

let test_bare_sim_fixtures () =
  let flagged = lint_fixture "bare_sim_flagged.ml" in
  Alcotest.(check (list int)) "every spelling flagged" [ 6; 7; 11 ]
    (List.filter_map
       (fun (f : Report.finding) ->
         if f.Report.rule = "bare-sim" then Some f.Report.line else None)
       flagged);
  Alcotest.(check int) "cluster-built file clean" 0
    (rule_count "bare-sim" (lint_fixture "bare_sim_clean.ml"));
  Alcotest.(check int) "pragmas waive" 0
    (rule_count "bare-sim" (lint_fixture "bare_sim_waived.ml"));
  let lint_as path =
    let rep = Report.create () in
    Rules.lint_source rep ~path
      (read_file (Filename.concat fixture_dir "bare_sim_flagged.ml"));
    rule_count "bare-sim" (Report.sorted rep)
  in
  (* bin/ and examples/ are in scope; test/ builds bare fixtures *)
  List.iter
    (fun path -> Alcotest.(check int) (path ^ " in scope") 3 (lint_as path))
    [ "bin/x.ml"; "examples/x.ml" ];
  Alcotest.(check int) "test/ exempt" 0 (lint_as "test/x.ml");
  Alcotest.(check int) "Shard itself allowlisted" 0
    (lint_as "lib/net/shard.ml")

let test_poly_minmax_fixtures () =
  let lint_as path name =
    let rep = Report.create () in
    Rules.lint_source rep ~path (read_file (Filename.concat fixture_dir name));
    Report.sorted rep
  in
  Alcotest.(check (list int)) "every spelling flagged" [ 5; 7; 7; 9 ]
    (List.filter_map
       (fun (f : Report.finding) ->
         if f.Report.rule = "poly-minmax" then Some f.Report.line else None)
       (lint_as "lib/transport/x.ml" "poly_minmax_flagged.ml"));
  Alcotest.(check int) "monomorphic file clean" 0
    (rule_count "poly-minmax"
       (lint_as "lib/transport/x.ml" "poly_minmax_clean.ml"));
  Alcotest.(check int) "pragmas waive" 0
    (rule_count "poly-minmax"
       (lint_as "lib/transport/x.ml" "poly_minmax_waived.ml"));
  (* the hot-path libraries are in scope; the rest of lib/ is not *)
  List.iter
    (fun dir ->
      Alcotest.(check int) (dir ^ " in scope") 4
        (rule_count "poly-minmax"
           (lint_as ("lib/" ^ dir ^ "/x.ml") "poly_minmax_flagged.ml")))
    [ "engine"; "net"; "transport"; "mptcp"; "core" ];
  List.iter
    (fun path ->
      Alcotest.(check int) (path ^ " exempt") 0
        (rule_count "poly-minmax" (lint_as path "poly_minmax_flagged.ml")))
    [ "lib/workload/x.ml"; "lib/stats/x.ml"; "test/x.ml"; "bin/x.ml" ]

let test_bad_example_still_fires () =
  let findings = lint_fixture "bad_example.ml" in
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        ("rule " ^ rule ^ " fires")
        true
        (rule_count rule findings > 0))
    [
      "wall-clock"; "unix-in-lib"; "unseeded-random"; "obj-magic";
      "poly-compare-time"; "bare-compare"; "stdout-in-lib"; "direct-printf";
    ]

(* [unused-export] needs a whole tree: the fixture is a small one, with
   a lib/ user and a bin/ user of lib/gadget's interfaces. *)
let unused_export_files =
  [
    "lib/gadget/widget.mli"; "lib/gadget/widget.ml"; "lib/gadget/orphan.mli";
    "lib/gadget/orphan.ml"; "lib/gadget/quiet.mli"; "lib/gadget/quiet.ml";
    "lib/gadget/client.ml"; "bin/main.ml";
  ]

let unused_exports files =
  let root = Filename.concat tool_dir "fixtures/unused_export" in
  let rep = Report.create () in
  Rules.check_unused_exports rep
    (List.map (fun p -> (p, read_file (Filename.concat root p))) files);
  List.map
    (fun (f : Report.finding) ->
      Printf.sprintf "%s:%s" (Filename.basename f.Report.path)
        (Option.value ~default:"?" f.Report.decl))
    (Report.sorted rep)

let test_unused_export_fixtures () =
  Alcotest.(check (list string))
    "only orphan.mli's vals are flagged; quiet.mli's pragmas waive"
    [
      "orphan.mli:unused"; "orphan.mli:self_only"; "orphan.mli:count";
      "orphan.mli:after_scope"; "orphan.mli:hidden";
    ]
    (unused_exports unused_export_files);
  let without name = List.filter (fun p -> p <> name) unused_export_files in
  let widget l = List.filter (String.starts_with ~prefix:"widget.mli:") l in
  (* each negative case really rests on the use the fixture gives it *)
  Alcotest.(check (list string))
    "alias, let module, local open and open are uses"
    [
      "widget.mli:by_alias"; "widget.mli:by_let_module"; "widget.mli:by_open";
      "widget.mli:by_local_open";
    ]
    (widget (unused_exports (without "lib/gadget/client.ml")));
  Alcotest.(check (list string))
    "a second directory and a nested submodule are uses"
    [ "widget.mli:by_path"; "widget.mli:by_submodule" ]
    (widget (unused_exports (without "bin/main.ml")))

(* ------------------------------------------------------------------ *)
(* Self-lint: the linter's own sources must be clean *)

let test_self_lint () =
  let rep = Report.create () in
  List.iter
    (fun name ->
      let path = Filename.concat tool_dir name in
      Alcotest.(check bool) (name ^ " exists") true (Sys.file_exists path);
      Rules.lint_source rep ~path:("tool/lint/" ^ name) (read_file path))
    [ "lexer.ml"; "rules.ml"; "report.ml"; "baseline.ml"; "main.ml" ];
  let findings = Report.sorted rep in
  Alcotest.(check (list string))
    "xmplint is clean on its own sources" []
    (List.map Report.finding_to_string findings)

(* The coupling seam and every multipath controller on it must stay
   lint-clean — the unit-suffix and iteration-order rules in particular
   guard the float/Time.t boundary these files live on. Keeping them at
   zero findings keeps tool/lint/baseline.json empty. *)
let test_controller_sources_lint_clean () =
  let mptcp_dir =
    if Sys.file_exists "../lib/mptcp" then "../lib/mptcp" else "lib/mptcp"
  in
  let rep = Report.create () in
  List.iter
    (fun name ->
      let path = Filename.concat mptcp_dir name in
      Alcotest.(check bool) (name ^ " exists") true (Sys.file_exists path);
      Rules.lint_source rep ~path:("lib/mptcp/" ^ name) (read_file path))
    [ "coupling.ml"; "lia.ml"; "olia.ml"; "balia.ml"; "veno.ml"; "amp.ml" ];
  let findings = Report.sorted rep in
  Alcotest.(check (list string))
    "multipath controllers are lint-clean" []
    (List.map Report.finding_to_string findings)

(* ------------------------------------------------------------------ *)
(* Baseline ratchet *)

let mk_finding path rule decl : Report.finding =
  { Report.path; line = 10; rule; decl = Some decl; msg = "synthetic" }

let test_baseline_roundtrip () =
  let file = Filename.temp_file "xmplint_baseline" ".json" in
  let findings =
    [
      mk_finding "lib/a.ml" "hashtbl-order" "f";
      mk_finding "lib/a.ml" "hashtbl-order" "g";
      mk_finding "lib/b.ml" "unit-suffix" "h";
    ]
  in
  Baseline.write file findings;
  (match Baseline.load file with
  | Error e -> Alcotest.fail e
  | Ok entries ->
    Alcotest.(check int) "two pinned keys" 2 (List.length entries);
    let find p r =
      List.find_opt
        (fun e -> e.Baseline.b_path = p && e.Baseline.b_rule = r)
        entries
    in
    (match find "lib/a.ml" "hashtbl-order" with
    | Some e -> Alcotest.(check int) "count 2" 2 e.Baseline.b_count
    | None -> Alcotest.fail "missing lib/a.ml pin");
    match find "lib/b.ml" "unit-suffix" with
    | Some e -> Alcotest.(check int) "count 1" 1 e.Baseline.b_count
    | None -> Alcotest.fail "missing lib/b.ml pin");
  Sys.remove file

let test_ratchet_verdicts () =
  let baseline =
    [ { Baseline.b_path = "lib/a.ml"; b_rule = "hashtbl-order"; b_count = 1 } ]
  in
  (* within budget: one finding suppressed *)
  let v1 = Baseline.apply baseline [ mk_finding "lib/a.ml" "hashtbl-order" "f" ] in
  Alcotest.(check int) "no violations" 0 (List.length v1.Baseline.violations);
  Alcotest.(check int) "suppressed" 1 v1.Baseline.suppressed;
  Alcotest.(check int) "no stale" 0 (List.length v1.Baseline.stale);
  (* growth: second finding for the same key violates *)
  let v2 =
    Baseline.apply baseline
      [
        mk_finding "lib/a.ml" "hashtbl-order" "f";
        mk_finding "lib/a.ml" "hashtbl-order" "g";
      ]
  in
  (match v2.Baseline.violations with
  | [ viol ] ->
    Alcotest.(check string) "rule named" "hashtbl-order" viol.Baseline.v_rule;
    Alcotest.(check int) "allowed" 1 viol.Baseline.v_allowed;
    Alcotest.(check int) "found" 2 viol.Baseline.v_found
  | other ->
    Alcotest.failf "expected one violation, got %d" (List.length other));
  (* fixed finding: the stale pin is reported and fails the ratchet *)
  let v3 = Baseline.apply baseline [] in
  Alcotest.(check int) "no violations" 0 (List.length v3.Baseline.violations);
  Alcotest.(check bool) "not clean" false (Baseline.clean v3);
  (match v3.Baseline.stale with
  | [ (p, r, pinned, found) ] ->
    Alcotest.(check string) "stale path" "lib/a.ml" p;
    Alcotest.(check string) "stale rule" "hashtbl-order" r;
    Alcotest.(check int) "pinned" 1 pinned;
    Alcotest.(check int) "found" 0 found
  | other -> Alcotest.failf "expected one stale entry, got %d" (List.length other));
  (* a fresh rule with no pin violates immediately (ratchet from zero) *)
  let v4 = Baseline.apply baseline [ mk_finding "lib/z.ml" "unit-suffix" "k" ] in
  Alcotest.(check int) "new rule violates" 1 (List.length v4.Baseline.violations)

let test_ratchet_json_names_rule () =
  let baseline = [] in
  let v =
    Baseline.apply baseline [ mk_finding "lib/a.ml" "mutable-global" "total" ]
  in
  let json =
    Report.to_json ~ratchet:(Baseline.verdict_to_json v) ~files:1
      [ mk_finding "lib/a.ml" "mutable-global" "total" ]
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json names the rule" true
    (contains json "\"rule\": \"mutable-global\"");
  Alcotest.(check bool) "json names the declaration" true
    (contains json "\"decl\": \"total\"");
  Alcotest.(check bool) "ratchet not clean" true
    (contains json "\"clean\": false")

(* End to end: an injected finding makes main.exe exit nonzero with a
   JSON report naming the rule; pinning it in a baseline restores 0. *)
let test_main_exe_ratchet () =
  let exe = main_exe in
  Alcotest.(check bool) "main.exe built" true (Sys.file_exists exe);
  let root = Filename.temp_file "xmplint_tree" "" in
  Sys.remove root;
  Unix.mkdir root 0o700;
  Unix.mkdir (Filename.concat root "lib") 0o700;
  let src = Filename.concat (Filename.concat root "lib") "leaky.ml" in
  let oc = open_out src in
  output_string oc "let leak = ref 0\n";
  close_out oc;
  let out = Filename.temp_file "xmplint_out" ".json" in
  let run args =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>/dev/null" (Filename.quote exe) args
         (Filename.quote out))
  in
  let code =
    run (Printf.sprintf "--root %s --format json lib" (Filename.quote root))
  in
  Alcotest.(check int) "injected finding exits 1" 1 code;
  let json = read_file out in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report names mutable-global" true
    (contains json "\"rule\": \"mutable-global\"");
  Alcotest.(check bool) "report names the declaration" true
    (contains json "\"decl\": \"leak\"");
  (* pin it (missing-mli fires too: leaky.ml has no interface) *)
  let bfile = Filename.temp_file "xmplint_pin" ".json" in
  Baseline.write bfile
    [
      mk_finding "lib/leaky.ml" "mutable-global" "leak";
      mk_finding "lib/leaky.ml" "missing-mli" "leaky";
    ];
  let code2 =
    run
      (Printf.sprintf "--root %s --format json --baseline %s lib"
         (Filename.quote root) (Filename.quote bfile))
  in
  Alcotest.(check int) "pinned baseline exits 0" 0 code2;
  Alcotest.(check bool) "ratchet clean in json" true
    (contains (read_file out) "\"clean\": true");
  (* a pin above the count found is stale: it fails the run, and the
     message names the baseline file in use *)
  Baseline.write bfile
    [
      mk_finding "lib/leaky.ml" "mutable-global" "leak";
      mk_finding "lib/leaky.ml" "mutable-global" "leak2";
      mk_finding "lib/leaky.ml" "missing-mli" "leaky";
    ];
  let code3 =
    run
      (Printf.sprintf "--root %s --baseline %s lib" (Filename.quote root)
         (Filename.quote bfile))
  in
  Alcotest.(check int) "stale pin exits 1" 1 code3;
  Alcotest.(check bool) "message names the baseline in use" true
    (contains (read_file out) ("tighten " ^ bfile));
  let code4 =
    run
      (Printf.sprintf "--root %s --format json --baseline %s lib"
         (Filename.quote root) (Filename.quote bfile))
  in
  Alcotest.(check int) "stale pin exits 1 in json" 1 code4;
  Alcotest.(check bool) "ratchet not clean in json" true
    (contains (read_file out) "\"clean\": false");
  Sys.remove out;
  Sys.remove bfile;
  Sys.remove src;
  Unix.rmdir (Filename.concat root "lib");
  Unix.rmdir root

let suite =
  [
    Alcotest.test_case "lexer: positions and dotted idents" `Quick
      test_lexer_positions;
    Alcotest.test_case "lexer: strings and comments elided" `Quick
      test_lexer_strings_comments;
    Alcotest.test_case "lexer: pragma grammar with justification" `Quick
      test_lexer_pragmas;
    Alcotest.test_case "items: toplevel declaration grouping" `Quick test_items;
    Alcotest.test_case "mutable-global: fixture cases" `Quick
      test_mutable_global_fixture;
    Alcotest.test_case "unit-suffix: fixture cases" `Quick
      test_unit_suffix_fixture;
    Alcotest.test_case "hashtbl-order: fixture cases" `Quick
      test_hashtbl_order_fixture;
    Alcotest.test_case "packet-release: fixture cases" `Quick
      test_packet_release_fixtures;
    Alcotest.test_case "bare-sim: fixture cases" `Quick test_bare_sim_fixtures;
    Alcotest.test_case "legacy rules still fire on bad_example" `Quick
      test_bad_example_still_fires;
    Alcotest.test_case "self-lint: engine sources are clean" `Quick
      test_self_lint;
    Alcotest.test_case "multipath controller sources are lint-clean" `Quick
      test_controller_sources_lint_clean;
    Alcotest.test_case "baseline: write/load roundtrip" `Quick
      test_baseline_roundtrip;
    Alcotest.test_case "baseline: ratchet verdicts" `Quick
      test_ratchet_verdicts;
    Alcotest.test_case "baseline: JSON names rule and declaration" `Quick
      test_ratchet_json_names_rule;
    Alcotest.test_case "main.exe: injected finding fails, pin restores" `Quick
      test_main_exe_ratchet;
    Alcotest.test_case "poly-minmax: fixture cases" `Quick
      test_poly_minmax_fixtures;
    Alcotest.test_case "unused-export: fixture tree" `Quick
      test_unused_export_fixtures;
  ]
