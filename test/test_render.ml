module Render = Xmp_experiments.Render
module Distribution = Xmp_stats.Distribution

(* capture stdout during [f] *)
let capture f =
  let buf_file = Filename.temp_file "xmp_render" ".txt" in
  let fd = Unix.openfile buf_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let ic = open_in buf_file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove buf_file;
  s

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_heading () =
  let s = capture (fun () -> Render.heading "Hello") in
  Alcotest.(check bool) "boxed" true (contains s "= Hello =");
  Alcotest.(check bool) "has bars" true (contains s "=========")

let test_series_table () =
  let s =
    capture (fun () ->
        Render.series_table ~bucket_s:0.5
          [ ("a", [| 0.1; 0.2; 0.3 |]); ("b", [| 1.0; 2.0; 3.0 |]) ])
  in
  Alcotest.(check bool) "time column" true (contains s "t(s)");
  Alcotest.(check bool) "bucket times" true
    (contains s "0.00" && contains s "0.50" && contains s "1.00");
  Alcotest.(check bool) "values" true
    (contains s "0.200" && contains s "3.000")

let test_series_table_every () =
  let s =
    capture (fun () ->
        Render.series_table ~bucket_s:1.0 ~every:2
          [ ("a", [| 1.; 2.; 3.; 4. |]) ])
  in
  Alcotest.(check bool) "subsampled keeps 0 and 2" true
    (contains s "1.000" && contains s "3.000");
  Alcotest.(check bool) "drops odd buckets" false (contains s "2.000")

let test_series_table_empty () =
  let s = capture (fun () -> Render.series_table ~bucket_s:1.0 []) in
  Alcotest.(check string) "nothing printed" "" s

let test_cdf_table () =
  let d = Distribution.create () in
  List.iter (Distribution.add d) (List.init 100 (fun i -> float_of_int i));
  let s = capture (fun () -> Render.cdf_table [ ("flows", d) ]) in
  Alcotest.(check bool) "header" true (contains s "flows");
  Alcotest.(check bool) "median row" true (contains s "0.50");
  let empty = Distribution.create () in
  let s2 = capture (fun () -> Render.cdf_table [ ("none", empty) ]) in
  Alcotest.(check bool) "empty prints dashes" true (contains s2 "--")

let test_five_number_table () =
  let d = Distribution.create () in
  List.iter (Distribution.add d) [ 1.; 2.; 3. ];
  let s =
    capture (fun () ->
        Render.five_number_table ~value_header:"layer"
          [ ("core", d); ("empty", Distribution.create ()) ])
  in
  Alcotest.(check bool) "header columns" true
    (contains s "min" && contains s "p90" && contains s "mean");
  Alcotest.(check bool) "row" true (contains s "core");
  Alcotest.(check bool) "empty row dashes" true (contains s "--")

let suite =
  [
    Alcotest.test_case "heading" `Quick test_heading;
    Alcotest.test_case "series table" `Quick test_series_table;
    Alcotest.test_case "series subsampling" `Quick test_series_table_every;
    Alcotest.test_case "series empty" `Quick test_series_table_empty;
    Alcotest.test_case "cdf table" `Quick test_cdf_table;
    Alcotest.test_case "five-number table" `Quick test_five_number_table;
  ]
