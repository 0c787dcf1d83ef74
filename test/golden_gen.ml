(* Regenerates the golden-output digest file:

     dune exec test/golden_gen.exe > test/golden.expected

   Each line is "<scenario> <md5 of its rendered output>" for the golden
   scenario set (fig1/fig4/fig6/fig7, ablations.k, ablations.queue,
   wan.asym, wan.mixed, wl.incast.sweep and incast.lossy at --quick
   scale). Run it only when
   an output change is intended; test_golden.ml fails on any drift. *)

module Runner = Xmp_runner.Runner
module Scenario = Xmp_runner.Scenario

let () =
  print_endline
    "# md5 digests of the golden scenarios' rendered output (--quick scale).";
  print_endline "# Regenerate after an intended output change with:";
  print_endline "#   dune exec test/golden_gen.exe > test/golden.expected";
  List.iter
    (fun sc ->
      let out = Runner.capture sc.Scenario.run in
      Printf.printf "%s %s\n" sc.Scenario.name
        (Digest.to_hex (Digest.string out)))
    (Xmp_experiments.Scenarios.golden ())
