(* The CLI rejects malformed numbers at parse time: xmp_sim exits 124
   (cmdliner's command-line error) with a message naming the option or
   run-spec field,
   before any simulation starts, instead of raising halfway into a run
   or running silently with a meaningless value. *)

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec` from the repo root it is the root. *)
let xmp_sim =
  let candidates = [ "../bin/xmp_sim.exe"; "_build/default/bin/xmp_sim.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

(* exit code, stdout and stderr of the shell command [cmd] *)
let run_shell cmd =
  let out = Filename.temp_file "xmp_cli" ".out" in
  let err = Filename.temp_file "xmp_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s > %s 2> %s" cmd (Filename.quote out)
         (Filename.quote err))
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let stdout = read out and msg = read err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, msg)

(* ... and of [xmp_sim args] *)
let run_out args = run_shell (Filename.quote xmp_sim ^ " " ^ args)

let run args =
  let code, _, msg = run_out args in
  (code, msg)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let spec s = Filename.quote s

(* (test name, arguments, what the error must name). Rows ported from
   the flag forms that [run] specs replaced keep the old invocation as
   their name. *)
let malformed =
  [
    ("workload -k 5", "run " ^ spec "ft:5 XMP-2 websearch", "field 'topology'");
    ("sweep -k 5", "run " ^ spec "ft:5 XMP-2 permutation", "field 'topology'");
    ("workload --load 0", "run " ^ spec "ft:8 XMP-2 websearch load=0", "field 'load'");
    ( "workload --size-scale 0",
      "run " ^ spec "ft:8 XMP-2 websearch size-scale=0",
      "field 'size-scale'" );
    ("workload --domains 0", "run --domains 0 " ^ spec "ft:8 XMP-2 websearch", "option '--domains'");
    ("wan --domains 0", "run --domains 0 " ^ spec "ft:4+ft:4 XMP-2 websearch", "option '--domains'");
    ("wan --trunk nan", "run " ^ spec "ft:4+ft:4 XMP-2 websearch trunk=nan", "field 'trunk'");
    ("wan --trunk inf", "run " ^ spec "ft:4+ft:4 XMP-2 websearch trunk=inf", "field 'trunk'");
    ("wan --cross-dc 2", "run " ^ spec "ft:4+ft:4 XMP-2 websearch cross-dc=2", "field 'cross-dc'");
    ( "wan --cross-dc nan",
      "run " ^ spec "ft:4+ft:4 XMP-2 websearch cross-dc=nan",
      "field 'cross-dc'" );
    ("eval --queue 0", "run " ^ spec "ft:4 XMP-2 permutation queue=0", "field 'queue'");
    ("eval --beta 1", "run " ^ spec "ft:4 XMP-2 permutation beta=1", "field 'beta'");
    ("trace --capacity 0", "trace --capacity 0 " ^ spec "tb:fig4", "option '--capacity'");
    ("fig4 --scale=0", "run " ^ spec "tb:fig4 scale=0", "field 'scale'");
    ("eval --horizon=-1", "run " ^ spec "ft:4 XMP-2 permutation horizon=-1", "field 'horizon'");
    ("eval --horizon nan", "run " ^ spec "ft:4 XMP-2 permutation horizon=nan", "field 'horizon'");
    ("workload --horizon 0", "run " ^ spec "ft:8 XMP-2 websearch horizon=0", "field 'horizon'");
    ("workload --flows=0", "run " ^ spec "ft:8 XMP-2 websearch flows=0", "field 'flows'");
    ("workload --drain=-1", "run " ^ spec "ft:8 XMP-2 websearch drain=-1", "field 'drain'");
    ("workload --drain nan", "run " ^ spec "ft:8 XMP-2 websearch drain=nan", "field 'drain'");
    ( "run drain past max_int ns",
      "run " ^ spec "ft:4 XMP-2 websearch drain=10000000000s",
      "field 'drain'" );
    ("wan --rto-min=-5", "run " ^ spec "ft:4+ft:4 XMP-2 websearch rto-min=-5", "field 'rto-min'");
    (* a negative marking threshold and a job count below one used to run *)
    ("run mark=-5 (pattern)", "run " ^ spec "ft:4 XMP-2 permutation mark=-5", "field 'mark'");
    ("run mark=-3 (open loop)", "run " ^ spec "ft:8 XMP-2 websearch mark=-3", "field 'mark'");
    ("matrix --mark=-5", "run " ^ spec "table1 ft:4 mark=-5", "field 'mark'");
    ("coexist --mark=-5", "run " ^ spec "table2 ft:4 mark=-5", "field 'mark'");
    ("fig7 --mark=-5", "run " ^ spec "tb:fig7 mark=-5", "field 'mark'");
    ("trace --mark=-5", "trace " ^ spec "tb:fig7 mark=-5", "field 'mark'");
    ("run --jobs=-4", "run --jobs=-4 fig1", "option '--jobs'");
    ("run --jobs 0", "run --jobs 0 fig1", "option '--jobs'");
    ("run -j-3", "run -j-3 fig1", "option '-j'");
    (* combinations a run spec cannot express *)
    ("run pattern on a WAN", "run " ^ spec "ft:4+ft:4 XMP-2 incast", "field 'traffic'");
    ( "run fault on an open-loop ft:K",
      "run " ^ spec "ft:8 XMP-2 websearch fault=down@1ms@all",
      "field 'fault'" );
    ("run --out with two items", "run --out x fig1 fig4", "option '--out'");
    (* combinations that parsed, then killed the worker *)
    ("run incast on ft:2", "run " ^ spec "ft:2 XMP-2 incast horizon=1ms", "field 'traffic'");
    ("run an incast view on ft:2", "run " ^ spec "table3 ft:2 horizon=10ms", "field 'traffic'");
    ( "run a fault on a missing link",
      "run --no-cache " ^ spec "ft:4 XMP-2 permutation horizon=1ms fault=down@0@link=nowhere",
      "field 'fault'" );
    ( "run a fault on a missing tag",
      "run --no-cache " ^ spec "ft:4 XMP-2 permutation horizon=1ms fault=down@0@tag=nosuch",
      "field 'fault'" );
    ( "run a pause of a missing host",
      "run --no-cache " ^ spec "ft:4 XMP-2 permutation horizon=1ms fault=pause@0..1ms@host=9999",
      "field 'fault'" );
    ( "run mixed draw from a one-host DC",
      "run " ^ spec "ls:1,1,1+ft:4 XMP-2 websearch horizon=1ms drain=1ms",
      "field 'cross-dc'" );
    (* beta, K and the RTO floor are run fields, not scheme tunables *)
    ("run a scheme tunable", "run " ^ spec "ft:4 XMP-2:beta=6 permutation", "field 'scheme'");
    ( "run a scheme tunable's hint",
      "run " ^ spec "ft:4 XMP-2:beta=6 permutation",
      "set beta=, mark= or rto-min= on the run" );
    ("run a field on a name that takes none", "run " ^ spec "wl.websearch.k8 seed=2", "field 'seed'");
    ("run a view base with a bad field", "run " ^ spec "table1 ft:4 queue=0", "field 'queue'");
    ("run an unknown testbed figure", "run " ^ spec "tb:fig5", "field 'topology'");
    ("run a field fig4 does not take", "run " ^ spec "tb:fig4 mark=15", "field 'mark'");
    ("run fig1 cc=xmp", "run " ^ spec "tb:fig1 cc=xmp", "field 'cc'");
    ("trace a non-testbed spec", "trace " ^ spec "ft:4 XMP-2 permutation", "field 'topology'");
    ("run --list-links without a spec", "run --list-links fig1", "option '--list-links'");
  ]

(* cmdliner wraps long messages, so compare with whitespace collapsed *)
let squash s =
  String.concat " "
    (List.filter (( <> ) "") (String.split_on_char ' ' (String.map (function '\n' -> ' ' | c -> c) s)))

let test_rejected (_, args, what) () =
  let code, msg = run args in
  Alcotest.(check int) (args ^ ": exit code") 124 code;
  Alcotest.(check bool)
    (Printf.sprintf "%s: message names %s" args what)
    true
    (contains (squash msg) what)

(* the runner reports progress on stderr; nothing else may appear there *)
let exits_cleanly (code, _, msg) =
  List.iter
    (fun line ->
      if line <> "" && not (String.starts_with ~prefix:"[runner] " line) then
        Alcotest.failf "unexpected stderr line %S" line)
    (String.split_on_char '\n' msg);
  Alcotest.(check int) "exit code" 0 code

let test_valid args () = exits_cleanly (run_out args)

(* a run that fails after parsing is one "xmp_sim: ..." line naming the
   run and the cause, and cmdliner's some_error exit, not an uncaught
   exception (exit 125) *)
let test_runtime_failure () =
  let text = "ft:4 XMP-2 websearch load=0.4 size-scale=0.03 horizon=100us drain=100us" in
  let code, msg = run ("run --no-cache --out /nonexistent/dir/p " ^ spec text) in
  Alcotest.(check int) "exit code" 123 code;
  let lines = List.filter (String.starts_with ~prefix:"xmp_sim: ") (String.split_on_char '\n' msg) in
  Alcotest.(check int) "one xmp_sim: line" 1 (List.length lines);
  List.iter
    (fun what -> Alcotest.(check bool) ("names " ^ what) true (contains (List.hd lines) what))
    [ text; "No such file or directory" ]

(* The fault report counts the injector's transitions. A 20 ms run
   emits more telemetry than the flight recorder keeps, so counting
   recorder entries missed the 10 ms link-down. *)
let test_fault_report_counts () =
  let code, out, _ =
    run_out
      ("run --no-cache "
      ^ spec "ft:4 XMP-2 permutation horizon=20ms fault=down@10ms@link=e0.0->a0.0")
  in
  Alcotest.(check int) "exit code" 0 code;
  let row prefix =
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' out)
  in
  Alcotest.(check (option string)) "link-down events" (Some "link-down events 1")
    (Option.map squash (row "link-down events"))

(* Memory follows what the queues hold, not their bound: a 10-million
   packet bound on every port of a k=4 fat tree runs under a 3 GB
   address-space limit (set on the test's own child shell), where rings
   allocated at their bound asked for about 7.7 GB and the run died
   with Out_of_memory. *)
let test_deep_queue_bound () =
  exits_cleanly
    (run_shell
       (Printf.sprintf "ulimit -v 3000000 && %s run --no-cache %s"
          (Filename.quote xmp_sim)
          (spec "ft:4 XMP-2 permutation horizon=1ms queue=10000000")))

let suite =
  List.map
    (fun ((name, _, _) as case) -> Alcotest.test_case name `Quick (test_rejected case))
    malformed
  @ [
      Alcotest.test_case "a valid workload run exits 0" `Quick
        (test_valid
           ("run --no-cache --domains 2 "
           ^ spec "ft:4 XMP-2 websearch load=0.4 size-scale=0.03 horizon=100us drain=100us"));
      Alcotest.test_case "a view without incast runs on ft:2" `Quick
        (test_valid ("run --no-cache " ^ spec "table2 ft:2 horizon=10ms"));
      Alcotest.test_case "a failing run exits 123 naming spec and cause" `Quick test_runtime_failure;
      Alcotest.test_case "the fault report counts a link-down late in a run" `Quick
        test_fault_report_counts;
      Alcotest.test_case "a 10M-packet queue bound runs in 3 GB" `Quick
        test_deep_queue_bound;
    ]
