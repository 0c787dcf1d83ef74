module Running = Xmp_stats.Running
module Distribution = Xmp_stats.Distribution
module Timeseries = Xmp_stats.Timeseries
module Table = Xmp_stats.Table
module Fairness = Xmp_stats.Fairness

let checkf = Alcotest.(check (float 1e-6))

(* ----- Running ----- *)

let test_running_basics () =
  let r = Running.create () in
  checkf "empty mean" 0. (Running.mean r);
  List.iter (Running.add r) [ 1.; 2.; 3.; 4. ];
  checkf "mean" 2.5 (Running.mean r)

let prop_welford_matches_direct =
  QCheck.Test.make ~count:200 ~name:"welford mean matches direct formula"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0. 1000.))
    (fun xs ->
      let r = Running.create () in
      List.iter (Running.add r) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      Float.abs (Running.mean r -. mean) < 1e-6)

(* ----- Distribution ----- *)

let test_distribution_percentiles () =
  let d = Distribution.create () in
  List.iter (Distribution.add d) [ 5.; 1.; 3.; 2.; 4. ];
  checkf "min" 1. (Distribution.percentile d 0.);
  checkf "median" 3. (Distribution.percentile d 50.);
  checkf "max" 5. (Distribution.percentile d 100.);
  checkf "interpolated p25" 2. (Distribution.percentile d 25.);
  checkf "interpolated p12.5" 1.5 (Distribution.percentile d 12.5)

let test_distribution_five_number () =
  let d = Distribution.create () in
  for i = 1 to 100 do
    Distribution.add d (float_of_int i)
  done;
  let mn, p10, p50, p90, mx = Distribution.five_number d in
  checkf "min" 1. mn;
  checkf "max" 100. mx;
  Alcotest.(check bool) "p10 near 10" true (Float.abs (p10 -. 10.9) < 0.2);
  Alcotest.(check bool) "p50 near 50" true (Float.abs (p50 -. 50.5) < 0.2);
  Alcotest.(check bool) "p90 near 90" true (Float.abs (p90 -. 90.1) < 0.2)

let test_distribution_errors () =
  let d = Distribution.create () in
  Alcotest.(check bool) "empty" true (Distribution.is_empty d);
  Alcotest.check_raises "percentile on empty"
    (Invalid_argument "Distribution.percentile: empty") (fun () ->
      ignore (Distribution.percentile d 50.));
  Distribution.add d 1.;
  Alcotest.check_raises "percentile range"
    (Invalid_argument "Distribution.percentile: range") (fun () ->
      ignore (Distribution.percentile d 101.))

let test_distribution_cdf () =
  let d = Distribution.create () in
  List.iter (Distribution.add d) [ 1.; 2.; 3.; 4. ];
  let pts = Distribution.cdf_points d 4 in
  Alcotest.(check int) "points" 4 (List.length pts);
  Alcotest.(check bool)
    "values match quartiles" true
    (List.map fst pts = [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check bool)
    "probabilities" true
    (List.map snd pts = [ 0.25; 0.5; 0.75; 1. ])

let test_fraction_above () =
  let d = Distribution.create () in
  List.iter (Distribution.add d) [ 1.; 2.; 3.; 4. ];
  checkf "half above 2" 0.5 (Distribution.fraction_above d 2.);
  checkf "none above 4" 0. (Distribution.fraction_above d 4.);
  checkf "all above 0" 1. (Distribution.fraction_above d 0.)

let test_add_after_sort () =
  (* sorting then adding must not lose or misplace samples *)
  let d = Distribution.create () in
  List.iter (Distribution.add d) [ 3.; 1. ];
  checkf "median of two" 2. (Distribution.percentile d 50.);
  Distribution.add d 2.;
  checkf "median of three" 2. (Distribution.percentile d 50.);
  Alcotest.(check int) "count" 3 (Distribution.count d)

(* Reference for the in-place ensure_sorted rewrite: a shadow
   copy-based implementation (sort a fresh copy of the live samples on
   every read, like the pre-rewrite code did) driven by the same
   interleaved add/percentile schedule must agree exactly. *)
let prop_inplace_sort_matches_copy =
  QCheck.Test.make ~count:200
    ~name:"interleaved add/percentile match copy-based sort"
    QCheck.(
      list_of_size (Gen.int_range 1 120)
        (pair (float_range (-500.) 500.) (float_range 0. 100.)))
    (fun ops ->
      let d = Distribution.create () in
      let shadow = ref [] in
      let copy_percentile p =
        let a = Array.of_list !shadow in
        Array.sort Float.compare a;
        let n = Array.length a in
        let rank = p /. 100. *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank) in
        let hi = Stdlib.min (lo + 1) (n - 1) in
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
      in
      List.for_all
        (fun (x, p) ->
          (* each step: add a sample (forces a re-sort next read), then
             query an arbitrary percentile against the shadow *)
          Distribution.add d x;
          shadow := x :: !shadow;
          let got = Distribution.percentile d p in
          let want = copy_percentile p in
          Float.abs (got -. want) <= 1e-9 *. (1. +. Float.abs want))
        ops)

let test_inplace_sort_duplicates_and_specials () =
  (* heapsort path: duplicates, negatives and infinities must order the
     same as Array.sort Float.compare, across repeated re-sorts *)
  let d = Distribution.create () in
  let xs = [ 3.; 3.; neg_infinity; 0.; -0.; 7.5; infinity; 3.; -2. ] in
  List.iter
    (fun x ->
      Distribution.add d x;
      ignore (Distribution.percentile d 50.))
    xs;
  let sorted = Distribution.values d in
  let expect = Array.of_list xs in
  Array.sort Float.compare expect;
  Alcotest.(check bool) "matches Array.sort" true (sorted = expect)

let prop_percentile_monotone =
  QCheck.Test.make ~count:100 ~name:"percentiles are monotone in p"
    QCheck.(list_of_size (Gen.int_range 2 40) (float_range 0. 100.))
    (fun xs ->
      let d = Distribution.create () in
      List.iter (Distribution.add d) xs;
      let ps = [ 0.; 10.; 25.; 50.; 75.; 90.; 100. ] in
      let vals = List.map (Distribution.percentile d) ps in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && increasing rest
        | _ -> true
      in
      increasing vals)

(* ----- Timeseries ----- *)

let test_timeseries () =
  let ts = Timeseries.create ~bucket:0.1 ~horizon:1.0 in
  Alcotest.(check int) "buckets" 10 (Array.length (Timeseries.rates ts));
  Timeseries.record ts ~time_s:0.05 10.;
  Timeseries.record ts ~time_s:0.09 5.;
  Timeseries.record ts ~time_s:0.95 2.;
  Timeseries.record ts ~time_s:1.5 99.;
  (* dropped *)
  Timeseries.record ts ~time_s:(-0.1) 99.;
  (* dropped *)
  let rates = Timeseries.rates ts in
  checkf "bucket 0 over its 0.1 s width" 150. rates.(0);
  checkf "bucket 9 over its 0.1 s width" 20. rates.(9);
  checkf "empty buckets" 0. (Array.fold_left ( +. ) 0. (Array.sub rates 1 8))

let test_timeseries_validation () =
  let raises msg f =
    match f () with
    | (_ : Timeseries.t) -> Alcotest.failf "%s: expected Invalid_argument" msg
    | exception Invalid_argument _ -> ()
  in
  raises "zero bucket" (fun () -> Timeseries.create ~bucket:0. ~horizon:1.);
  raises "negative bucket" (fun () ->
      Timeseries.create ~bucket:(-0.1) ~horizon:1.);
  raises "nan bucket" (fun () ->
      Timeseries.create ~bucket:Float.nan ~horizon:1.);
  raises "horizon below bucket" (fun () ->
      Timeseries.create ~bucket:0.5 ~horizon:0.1);
  raises "nan horizon" (fun () ->
      Timeseries.create ~bucket:0.1 ~horizon:Float.nan);
  (* horizon = bucket is the smallest legal series: one bucket *)
  let ts = Timeseries.create ~bucket:0.5 ~horizon:0.5 in
  Alcotest.(check int) "one bucket" 1 (Array.length (Timeseries.rates ts))

(* ----- Table ----- *)

let test_table_render () =
  let s =
    Table.render ~header:[ "name"; "v" ]
      ~rows:[ [ "a"; "1" ]; [ "bb"; "22" ] ]
      ()
  in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  (* all lines equal width structure: 4 lines *)
  Alcotest.(check int) "line count" 4
    (List.length (String.split_on_char '\n' (String.trim s)))

let test_table_ragged_rows () =
  let s = Table.render ~header:[ "a" ] ~rows:[ [ "x"; "y"; "z" ] ] () in
  Alcotest.(check bool) "pads header" true (String.length s > 0)

let test_fixed () =
  Alcotest.(check string) "fixed" "1.50" (Table.fixed 2 1.5);
  Alcotest.(check string) "nan" "--" (Table.fixed 2 Float.nan)

(* ----- Fairness ----- *)

let test_jain () =
  checkf "equal shares" 1. (Fairness.jain [ 5.; 5.; 5.; 5. ]);
  checkf "one hog" 0.25 (Fairness.jain [ 1.; 0.; 0.; 0. ]);
  checkf "empty" 1. (Fairness.jain []);
  checkf "all zero" 1. (Fairness.jain [ 0.; 0. ])

let prop_jain_bounds =
  QCheck.Test.make ~count:200 ~name:"jain index in [1/n, 1]"
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.001 100.))
    (fun xs ->
      let j = Fairness.jain xs in
      j <= 1. +. 1e-9 && j >= (1. /. float_of_int (List.length xs)) -. 1e-9)

let suite =
  [
    Alcotest.test_case "running basics" `Quick test_running_basics;
    QCheck_alcotest.to_alcotest prop_welford_matches_direct;
    Alcotest.test_case "distribution percentiles" `Quick
      test_distribution_percentiles;
    Alcotest.test_case "five-number summary" `Quick
      test_distribution_five_number;
    Alcotest.test_case "distribution errors" `Quick test_distribution_errors;
    Alcotest.test_case "cdf points" `Quick test_distribution_cdf;
    Alcotest.test_case "fraction above" `Quick test_fraction_above;
    Alcotest.test_case "add after sort" `Quick test_add_after_sort;
    QCheck_alcotest.to_alcotest prop_inplace_sort_matches_copy;
    Alcotest.test_case "in-place sort handles duplicates/specials" `Quick
      test_inplace_sort_duplicates_and_specials;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    Alcotest.test_case "timeseries buckets" `Quick test_timeseries;
    Alcotest.test_case "timeseries validation" `Quick
      test_timeseries_validation;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table ragged rows" `Quick test_table_ragged_rows;
    Alcotest.test_case "fixed formatting" `Quick test_fixed;
    Alcotest.test_case "jain index" `Quick test_jain;
    QCheck_alcotest.to_alcotest prop_jain_bounds;
  ]
