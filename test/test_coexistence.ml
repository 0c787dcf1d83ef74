(* Extended Table 2 golden check: the XMP-2 vs {BALIA, VENO, AMP}
   pairings at --quick scale must render byte-identically whether the
   runner executes them sequentially (--jobs 1) or in parallel worker
   processes (--jobs 4). One scenario per pairing so jobs=4 really
   schedules them concurrently. *)

module Runner = Xmp_runner.Runner
module Scenario = Xmp_runner.Scenario
module Scenarios = Xmp_experiments.Scenarios
module Coexistence = Xmp_experiments.Coexistence
module Scheme = Xmp_workload.Scheme

let quick_base = Scenarios.quick.Scenarios.base

let pairing_scenario partner =
  Scenario.create
    ~name:(Printf.sprintf "table2.ext.%s" (Scheme.name partner))
    ~descr:"one extended Table 2 pairing at quick scale"
    ~key:
      (Printf.sprintf "partner=%s %s" (Scheme.name partner)
         (Xmp_experiments.Run_spec.base_to_string quick_base))
    (fun () ->
      List.iter
        (fun queue_pkts ->
          let r =
            Coexistence.run quick_base ~partner ~queue_pkts
          in
          Printf.printf "%s queue=%d xmp=%.3f partner=%.3f\n"
            (Scheme.name partner) queue_pkts r.Coexistence.cell.xmp_mbps
            r.Coexistence.cell.partner_mbps)
        [ 50; 100 ])

let scenario_set = List.map pairing_scenario Coexistence.extended_partners

let outputs outcomes = List.map (fun o -> o.Runner.output) outcomes

let test_jobs_1_vs_4 () =
  let o1, _ =
    Runner.run ~jobs:1 ~cache:Runner.No_cache ~progress:false scenario_set
  in
  let o4, _ =
    Runner.run ~jobs:4 ~cache:Runner.No_cache ~progress:false scenario_set
  in
  Alcotest.(check (list string))
    "extended pairings byte-identical across --jobs 1 and --jobs 4"
    (outputs o1) (outputs o4);
  Alcotest.(check (list string))
    "identical digests"
    (List.map (fun o -> o.Runner.digest) o1)
    (List.map (fun o -> o.Runner.digest) o4);
  (* every pairing rendered both queue sizes and moved traffic *)
  let contains ~sub line =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length line && (String.sub line i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun out ->
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
      in
      Alcotest.(check int) "two queue sizes per pairing" 2 (List.length lines);
      List.iter
        (fun line ->
          Alcotest.(check bool)
            (Printf.sprintf "goodput rendered in %S" line)
            true
            (contains ~sub:"xmp=" line && not (contains ~sub:"xmp=0.000" line)))
        lines)
    (outputs o1)

let test_registered_scenario () =
  (* the registry row exists and carries the partner set in its output *)
  match Scenarios.select Scenarios.quick [ "table2.extended" ] with
  | Ok [ s ] ->
    Alcotest.(check string) "name" "table2.extended" s.Scenario.name
  | Ok _ -> Alcotest.fail "table2.extended resolved ambiguously"
  | Error name -> Alcotest.failf "unknown scenario %s" name

let suite =
  [
    Alcotest.test_case "extended pairings: jobs=1 ≡ jobs=4" `Quick
      test_jobs_1_vs_4;
    Alcotest.test_case "table2.extended is registered" `Quick
      test_registered_scenario;
  ]
