(* Golden-output regression: the rendered output of fig1/fig4/fig6/fig7,
   the K and queue-occupancy ablations, wan.asym, wan.mixed,
   wl.incast.sweep and incast.lossy at --quick scale, digested and
   compared against checked-in digests.
   Because every simulation is deterministic, any digest drift means an
   (intended or unintended) behavior change somewhere in the
   engine/transport/mptcp/core stack.

   Regenerating after an intended change is one command:

     dune exec test/golden_gen.exe > test/golden.expected *)

module Runner = Xmp_runner.Runner
module Scenario = Xmp_runner.Scenario
module Scenarios = Xmp_experiments.Scenarios

(* dune runtest runs in test/; dune exec test/test_main.exe in the root *)
let expected_file =
  if Sys.file_exists "golden.expected" then "golden.expected"
  else "test/golden.expected"

let regen_hint =
  "if this output change is intended, regenerate with: dune exec \
   test/golden_gen.exe > test/golden.expected"

let parse_expected () =
  let ic = open_in expected_file in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then loop acc
      else
        match String.split_on_char ' ' line with
        | [ name; digest ] -> loop ((name, digest) :: acc)
        | _ -> Alcotest.failf "malformed golden line: %S" line)
  in
  loop []

let output_digest sc =
  Digest.to_hex (Digest.string (Runner.capture sc.Scenario.run))

let test_golden_digests () =
  let expected = parse_expected () in
  let golden = Scenarios.golden () in
  List.iter
    (fun sc ->
      let name = sc.Scenario.name in
      match List.assoc_opt name expected with
      | None ->
        Alcotest.failf "no golden digest checked in for %s (%s)" name
          regen_hint
      | Some want ->
        Alcotest.(check string)
          (Printf.sprintf "%s golden output digest (%s)" name regen_hint)
          want (output_digest sc))
    golden;
  (* and nothing stale the other way around *)
  List.iter
    (fun (name, _) ->
      if
        not
          (List.exists (fun sc -> String.equal sc.Scenario.name name) golden)
      then
        Alcotest.failf "golden.expected lists unknown scenario %s (%s)" name
          regen_hint)
    expected

let suite =
  [
    Alcotest.test_case "fig1/fig4/fig6/fig7 quick-scale output digests"
      `Quick test_golden_digests;
  ]
