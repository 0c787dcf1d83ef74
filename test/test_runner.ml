(* Scenario runner: sequential/parallel byte-equivalence, digest-keyed
   caching, ordered result streaming, and robustness against corrupted,
   truncated and half-written cache entries. *)

module Runner = Xmp_runner.Runner
module Scenario = Xmp_runner.Scenario
module Cache = Xmp_runner.Cache
module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Tcp = Xmp_transport.Tcp
module Testbed = Xmp_net.Testbed

(* A cheap but real simulation (~a few ms) whose printed output depends
   on every parameter — the runner test workload. Exposed for
   test_fuzz's digest properties. *)
let tiny_output ~seed ~size () =
  let sim = Sim.create ~config:{ Sim.default_config with seed } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create
      ~policy:(Net.Queue_disc.Threshold_mark 5)
      ~capacity_pkts:30
  in
  let tb =
    Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.mbps 100.; delay = Time.us 50; disc } ]
      ()
  in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0
      ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0)
      ~path:0
      ~cc:(fun v -> Xmp_transport.Reno.make v)
      ~source:(Tcp.Limited (ref size))
      ()
  in
  Sim.run ~until:(Time.sec 5.) sim;
  Printf.printf "tiny seed=%d size=%d acked=%d complete=%b events=%d\n" seed
    size (Tcp.segments_acked conn) (Tcp.is_complete conn)
    (Sim.events_executed sim)

let tiny ~seed ~size =
  Scenario.create
    ~name:(Printf.sprintf "tiny.%d.%d" seed size)
    ~descr:"tiny deterministic TCP transfer"
    ~key:(Printf.sprintf "seed=%d size=%d" seed size)
    (tiny_output ~seed ~size)

(* Same digest as [tiny], poisoned closure: proves a warm cache serves
   bytes without simulating (running this would abort the whole run). *)
let tiny_poisoned ~seed ~size =
  Scenario.create
    ~name:(Printf.sprintf "tiny.%d.%d" seed size)
    ~key:(Printf.sprintf "seed=%d size=%d" seed size)
    (fun () -> failwith "cache should have served this scenario")

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmp_test_cache_%d_%d" (Unix.getpid ()) !ctr)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let outputs outcomes = List.map (fun o -> o.Runner.output) outcomes

let scenario_set = List.init 6 (fun i -> tiny ~seed:i ~size:(40 + (10 * i)))

let run ?(jobs = 1) ?(cache = Runner.No_cache) scenarios =
  Runner.run ~jobs ~cache ~progress:false scenarios

let test_sequential_parallel_equivalence () =
  let dir1 = fresh_dir () and dir4 = fresh_dir () in
  let o1, s1 = run ~jobs:1 ~cache:(Runner.Cache_dir dir1) scenario_set in
  let o4, s4 = run ~jobs:4 ~cache:(Runner.Cache_dir dir4) scenario_set in
  Alcotest.(check (list string))
    "jobs=1 and jobs=4 produce byte-identical outputs" (outputs o1)
    (outputs o4);
  Alcotest.(check (list string))
    "identical cache digests"
    (List.map (fun o -> o.Runner.digest) o1)
    (List.map (fun o -> o.Runner.digest) o4);
  Alcotest.(check int) "cold run misses all (jobs=1)" 6 s1.Runner.misses;
  Alcotest.(check int) "cold run misses all (jobs=4)" 6 s4.Runner.misses;
  List.iter
    (fun o -> Alcotest.(check bool) "cold => simulated" false o.Runner.from_cache)
    (o1 @ o4);
  (* the cache files themselves must be identical across job counts *)
  List.iter
    (fun o ->
      let key = o.Runner.digest in
      Alcotest.(check (option string))
        "cache entry bytes equal across job counts"
        (Cache.load ~dir:dir1 ~key)
        (Cache.load ~dir:dir4 ~key))
    o1;
  rm_rf dir1;
  rm_rf dir4

let test_warm_cache_serves_without_simulating () =
  let dir = fresh_dir () in
  let cold, _ = run ~jobs:2 ~cache:(Runner.Cache_dir dir) scenario_set in
  let poisoned =
    List.init 6 (fun i -> tiny_poisoned ~seed:i ~size:(40 + (10 * i)))
  in
  (* poisoned closures abort the run if executed: completing at all
     proves the warm cache never simulates *)
  let warm, stats = run ~jobs:4 ~cache:(Runner.Cache_dir dir) poisoned in
  Alcotest.(check int) "100% hits" 6 stats.Runner.hits;
  Alcotest.(check int) "no misses" 0 stats.Runner.misses;
  List.iter
    (fun o -> Alcotest.(check bool) "warm => from cache" true o.Runner.from_cache)
    warm;
  Alcotest.(check (list string))
    "warm bytes identical to cold bytes" (outputs cold) (outputs warm);
  rm_rf dir

let test_no_cache_mode () =
  let dir = fresh_dir () in
  let a, sa = run ~jobs:2 ~cache:Runner.No_cache scenario_set in
  let b, sb = run ~jobs:2 ~cache:Runner.No_cache scenario_set in
  Alcotest.(check int) "no-cache always misses" 6 sa.Runner.misses;
  Alcotest.(check int) "no-cache never learns" 6 sb.Runner.misses;
  Alcotest.(check (list string)) "still deterministic" (outputs a) (outputs b);
  Alcotest.(check bool) "writes no cache dir" false (Sys.file_exists dir)

let test_ordered_streaming () =
  let emitted = ref [] in
  let _, _ =
    Runner.run ~jobs:3 ~cache:Runner.No_cache ~progress:false
      ~on_outcome:(fun o -> emitted := o.Runner.scenario.Scenario.name :: !emitted)
      scenario_set
  in
  Alcotest.(check (list string))
    "on_outcome fires in input order, not completion order"
    (List.map (fun s -> s.Scenario.name) scenario_set)
    (List.rev !emitted)

let test_duplicate_digests_coalesce () =
  let s = tiny ~seed:3 ~size:70 in
  let o, _ = run ~jobs:2 [ s; s; s ] in
  match outputs o with
  | [ a; b; c ] ->
    Alcotest.(check string) "duplicates share one result" a b;
    Alcotest.(check string) "all three settle" b c
  | _ -> Alcotest.fail "expected three outcomes"

let test_failing_scenario_aborts () =
  let boom =
    Scenario.create ~name:"boom" ~key:"" (fun () -> failwith "boom")
  in
  match run ~jobs:2 [ tiny ~seed:1 ~size:50; boom ] with
  | exception Failure msg ->
    let contains sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) ("names the scenario: " ^ msg) true (contains "scenario boom");
    Alcotest.(check bool) ("names the cause: " ^ msg) true (contains "Failure(\"boom\")")
  | _ -> Alcotest.fail "a raising scenario must abort the run"

(* A worker the kernel kills (the OOM killer, say) is reported with the
   scenario it was running and the signal. The scenario only kills a
   forked worker, never the test process itself. *)
let test_killed_worker_reported () =
  let parent_pid = Unix.getpid () in
  let killed =
    Scenario.create ~name:"killed" ~key:"" (fun () ->
        if Unix.getpid () <> parent_pid then Unix.kill (Unix.getpid ()) Sys.sigkill)
  in
  match run ~jobs:1 [ killed ] with
  | exception Failure msg ->
    let contains sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) ("names the scenario: " ^ msg) true (contains "scenario killed");
    Alcotest.(check bool) ("names the signal: " ^ msg) true (contains "killed by signal 9")
  | _ -> Alcotest.fail "a killed worker must abort the run"

(* ----- cache robustness ----- *)

let reference_output = lazy (Runner.capture (tiny_output ~seed:9 ~size:55))

let one = tiny ~seed:9 ~size:55

let recovery_check ~what damage =
  (* cold run, damage the entry, rerun: the runner must detect, discard
     and recompute, then leave a good entry behind *)
  let dir = fresh_dir () in
  let _, _ = run ~jobs:1 ~cache:(Runner.Cache_dir dir) [ one ] in
  let key = Scenario.digest one in
  damage (Cache.entry_path ~dir ~key);
  let o, stats = run ~jobs:1 ~cache:(Runner.Cache_dir dir) [ one ] in
  Alcotest.(check int) (what ^ ": detected, so missed") 1 stats.Runner.misses;
  Alcotest.(check string)
    (what ^ ": recomputed the right bytes")
    (Lazy.force reference_output)
    (List.hd (outputs o));
  let _, stats = run ~jobs:1 ~cache:(Runner.Cache_dir dir) [ one ] in
  Alcotest.(check int) (what ^ ": entry repaired") 1 stats.Runner.hits;
  rm_rf dir

let test_corrupt_entry () =
  recovery_check ~what:"payload corruption" (fun path ->
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string s in
      (* flip a payload byte, leaving header and length intact *)
      let last = Bytes.length b - 2 in
      Bytes.set b last
        (if Bytes.get b last = 'x' then 'y' else 'x');
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc)

let test_truncated_entry () =
  recovery_check ~what:"truncation" (fun path ->
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub s 0 (String.length s / 2));
      close_out oc)

let test_garbage_entry () =
  recovery_check ~what:"not an entry at all" (fun path ->
      let oc = open_out_bin path in
      output_string oc "not an xmp-cache entry\n";
      close_out oc)

let test_stale_tmp_file () =
  (* a crash mid-store leaves .tmp.<key>; it must neither be served nor
     block a correct store *)
  let dir = fresh_dir () in
  let key = Scenario.digest one in
  Sys.mkdir dir 0o755;
  let oc = open_out_bin (Filename.concat dir (".tmp." ^ key)) in
  output_string oc "half-written garbage";
  close_out oc;
  Alcotest.(check (option string))
    "tmp file is not an entry" None (Cache.load ~dir ~key);
  let o, stats = run ~jobs:1 ~cache:(Runner.Cache_dir dir) [ one ] in
  Alcotest.(check int) "simulated despite tmp file" 1 stats.Runner.misses;
  Alcotest.(check string)
    "and produced the right bytes"
    (Lazy.force reference_output)
    (List.hd (outputs o));
  Alcotest.(check bool)
    "store completed over the stale tmp" true
    (Option.is_some (Cache.load ~dir ~key));
  rm_rf dir

let test_load_missing () =
  Alcotest.(check (option string))
    "absent dir loads nothing" None
    (Cache.load ~dir:(fresh_dir ()) ~key:(Scenario.digest one))

let test_store_load_roundtrip () =
  let dir = fresh_dir () in
  let key = String.make 32 'a' in
  Cache.store ~dir ~key "payload\nwith\nnewlines";
  Alcotest.(check (option string))
    "roundtrip" (Some "payload\nwith\nnewlines") (Cache.load ~dir ~key);
  Cache.store ~dir ~key "";
  Alcotest.(check (option string))
    "empty payload roundtrip" (Some "") (Cache.load ~dir ~key);
  rm_rf dir

(* ----- capture ----- *)

let test_capture () =
  let out = Runner.capture (fun () -> Printf.printf "a%db\n" 7) in
  Alcotest.(check string) "captures exactly the printed bytes" "a7b\n" out;
  let again = Runner.capture (fun () -> print_string "second") in
  Alcotest.(check string) "stdout restored between captures" "second" again

(* ----- digests ----- *)

let test_digest_follows_key_and_name () =
  let mk key = Scenario.create ~name:"d" ~key (fun () -> ()) in
  let d1 = Scenario.digest (mk "a=1 b=2") in
  Alcotest.(check string) "equal keys, equal digests" d1
    (Scenario.digest (mk "a=1 b=2"));
  let d3 = Scenario.digest (mk "a=1 b=3") in
  Alcotest.(check bool) "key change changes digest" false (d1 = d3);
  let renamed =
    Scenario.digest (Scenario.create ~name:"e" ~key:"a=1 b=2" (fun () -> ()))
  in
  Alcotest.(check bool) "name change changes digest" false (d1 = renamed)

let suite =
  [
    Alcotest.test_case "jobs=1 ≡ jobs=4, byte for byte" `Quick
      test_sequential_parallel_equivalence;
    Alcotest.test_case "warm cache serves bytes without simulating" `Quick
      test_warm_cache_serves_without_simulating;
    Alcotest.test_case "--no-cache bypasses the cache" `Quick
      test_no_cache_mode;
    Alcotest.test_case "results stream in deterministic order" `Quick
      test_ordered_streaming;
    Alcotest.test_case "duplicate digests simulate once" `Quick
      test_duplicate_digests_coalesce;
    Alcotest.test_case "a raising scenario aborts the run" `Quick
      test_failing_scenario_aborts;
    Alcotest.test_case "a killed worker names scenario and signal" `Quick
      test_killed_worker_reported;
    Alcotest.test_case "corrupted entry is discarded and recomputed" `Quick
      test_corrupt_entry;
    Alcotest.test_case "truncated entry is discarded and recomputed" `Quick
      test_truncated_entry;
    Alcotest.test_case "garbage entry is discarded and recomputed" `Quick
      test_garbage_entry;
    Alcotest.test_case "stale mid-write temp file is harmless" `Quick
      test_stale_tmp_file;
    Alcotest.test_case "load from absent dir" `Quick test_load_missing;
    Alcotest.test_case "store/load roundtrip" `Quick
      test_store_load_roundtrip;
    Alcotest.test_case "capture returns exactly the printed bytes" `Quick
      test_capture;
    Alcotest.test_case "digest follows key, name" `Quick
      test_digest_follows_key_and_name;
  ]
