(* The CLI rejects malformed numbers at parse time: xmp_sim exits 124
   (cmdliner's command-line error) with a message naming the option,
   before any simulation starts, instead of raising halfway into a run
   or running silently with a meaningless value. *)

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec` from the repo root it is the root. *)
let xmp_sim =
  let candidates = [ "../bin/xmp_sim.exe"; "_build/default/bin/xmp_sim.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

(* exit code and stderr of [xmp_sim args] *)
let run args =
  let err = Filename.temp_file "xmp_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote xmp_sim) args
         (Filename.quote err))
  in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, msg)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* (arguments, the option the error must name) *)
let malformed =
  [
    ("workload -k 5", "-k");
    ("sweep -k 5", "-k");
    ("workload --load 0", "--load");
    ("workload --size-scale 0", "--size-scale");
    ("workload --domains 0", "--domains");
    ("wan --domains 0", "--domains");
    ("wan --trunk nan", "--trunk");
    ("wan --trunk inf", "--trunk");
    ("wan --cross-dc 2", "--cross-dc");
    ("wan --cross-dc nan", "--cross-dc");
    ("eval --queue 0", "--queue");
    ("eval --beta 1", "--beta");
    ("trace --capacity 0", "--capacity");
    ("fig4 --scale=0", "--scale");
    ("eval --horizon=-1", "--horizon");
    ("eval --horizon nan", "--horizon");
    ("workload --horizon 0", "--horizon");
    ("workload --flows=0", "--flows");
    ("workload --drain=-1", "--drain");
    ("workload --drain nan", "--drain");
    ("wan --rto-min=-5", "--rto-min");
  ]

let test_rejected (args, option) () =
  let code, msg = run args in
  Alcotest.(check int) (args ^ ": exit code") 124 code;
  Alcotest.(check bool)
    (Printf.sprintf "%s: message names %s" args option)
    true
    (contains msg (Printf.sprintf "option '%s'" option))

let test_valid () =
  let code, msg =
    run "workload -k 4 --load 0.4 --size-scale 0.03 --domains 2 --horizon \
         0.0001 --drain 0.0001"
  in
  Alcotest.(check string) "no error message" "" msg;
  Alcotest.(check int) "exit code" 0 code

let suite =
  List.map
    (fun case -> Alcotest.test_case (fst case) `Quick (test_rejected case))
    malformed
  @ [ Alcotest.test_case "a valid workload run exits 0" `Quick test_valid ]
