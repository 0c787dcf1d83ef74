(* The scheme-conformance matrix: every scheme's controller is driven
   through the same canned episodes (Conformance.episodes) and must
   satisfy the per-scheme property profile below, plus match its
   committed golden cwnd trace byte for byte. *)

module Scheme = Xmp_workload.Scheme
module Conformance = Xmp_workload.Conformance

let eps = 1e-9

(* How the "coupled increase never exceeds uncoupled Reno's" bound is
   stated for a scheme: per acked segment (the Reno-skeleton couplings),
   per round (XMP's BOS moves in whole segments at round boundaries, at
   most one per round), or not at all (single-path schemes are the
   uncoupled baseline). *)
type harm = Per_ack | Per_round | Single_path

type profile = {
  scheme : Scheme.t;
  retx_floor : float;
      (* fast retransmit keeps at least this fraction of the window *)
  ecn_floor : float option;
      (* CE keeps at least this fraction (ECN-capable schemes only) *)
  harm : harm;
}

let profiles =
  [
    {
      scheme = Scheme.dctcp;
      retx_floor = 0.5;
      ecn_floor = Some 0.5;
      harm = Single_path;
    };
    {
      scheme = Scheme.reno;
      retx_floor = 0.5;
      ecn_floor = None;
      harm = Single_path;
    };
    { scheme = Scheme.lia 2; retx_floor = 0.5; ecn_floor = None; harm = Per_ack };
    {
      scheme = Scheme.olia 2;
      retx_floor = 0.5;
      ecn_floor = None;
      harm = Per_ack;
    };
    {
      (* ECN cut is w − max(w/β, 1) with the default β = 4 *)
      scheme = Scheme.xmp 2;
      retx_floor = 0.5;
      ecn_floor = Some 0.75;
      harm = Per_round;
    };
    {
      (* cut keeps 1 − min(α, 1.5)/2 ∈ [1/4, 1/2] of the window *)
      scheme = Scheme.balia 2;
      retx_floor = 0.25;
      ecn_floor = None;
      harm = Per_ack;
    };
    {
      (* 4/5 on presumed-random losses, 1/2 on congestive ones *)
      scheme = Scheme.veno 2;
      retx_floor = 0.5;
      ecn_floor = None;
      harm = Per_ack;
    };
    {
      scheme = Scheme.amp 2;
      retx_floor = 0.5;
      ecn_floor = Some 0.5;
      harm = Per_ack;
    };
  ]

let ctx scheme ep idx what =
  Printf.sprintf "%s/%s step %d: %s" (Scheme.name scheme) ep.Conformance.ep_name
    idx what

(* Walk one (scheme, episode) cell asserting the property matrix. *)
let check_episode profile ep =
  let scheme = profile.scheme in
  let rig = Conformance.make_rig scheme in
  let seen_ce = ref false and seen_loss = ref false in
  List.iteri
    (fun idx step ->
      let pre = Conformance.cwnd rig 0 in
      let pre_ss = Conformance.in_slow_start rig 0 in
      Conformance.apply rig step;
      let post = Conformance.cwnd rig 0 in
      (* window is always finite and at least one segment *)
      Alcotest.(check bool)
        (ctx scheme ep idx "cwnd finite")
        true
        (Float.is_finite post);
      Alcotest.(check bool)
        (ctx scheme ep idx "cwnd >= 1")
        true
        (post >= 1. -. eps);
      (match step with
      | Conformance.Ack k ->
        Alcotest.(check bool)
          (ctx scheme ep idx "clean ACK never shrinks the window")
          true
          (post >= pre -. eps);
        (match profile.harm with
        | Single_path -> ()
        | Per_ack ->
          if not pre_ss then
            Alcotest.(check bool)
              (ctx scheme ep idx "coupled increase <= Reno's 1/w per ack")
              true
              (post -. pre <= (float_of_int k /. pre) +. 1e-6)
        | Per_round ->
          if not pre_ss then
            Alcotest.(check bool)
              (ctx scheme ep idx "round increase <= one segment")
              true
              (post -. pre <= 1. +. 1e-6))
      | Conformance.Ce_ack k ->
        if Scheme.uses_ecn scheme then begin
          if not !seen_ce then
            Alcotest.(check bool)
              (ctx scheme ep idx "first CE exits slow start")
              false
              (Conformance.in_slow_start rig 0);
          seen_ce := true;
          let floor =
            match profile.ecn_floor with Some f -> f | None -> assert false
          in
          Alcotest.(check bool)
            (ctx scheme ep idx "CE cut bounded by the scheme's beta")
            true
            (post >= Float.min (pre *. floor) (pre -. 1.) -. eps);
          Alcotest.(check bool)
            (ctx scheme ep idx "CE never grows the window past the acks")
            true
            (post <= pre +. float_of_int k +. eps)
        end
        else
          (* loss-driven schemes must ignore the marks entirely *)
          Alcotest.(check bool)
            (ctx scheme ep idx "CE ignored by loss-driven scheme")
            true
            (post >= pre -. eps)
      | Conformance.Fast_retransmit ->
        seen_loss := true;
        Alcotest.(check bool)
          (ctx scheme ep idx "loss exits slow start")
          false
          (Conformance.in_slow_start rig 0);
        Alcotest.(check bool)
          (ctx scheme ep idx "loss never grows the window")
          true
          (post <= Float.max pre 2. +. eps);
        Alcotest.(check bool)
          (ctx scheme ep idx "loss cut bounded by the scheme's beta")
          true
          (post >= Float.min (pre *. profile.retx_floor) (pre -. 1.) -. eps)
      | Conformance.Timeout ->
        seen_loss := true;
        Alcotest.(check bool)
          (ctx scheme ep idx "timeout collapses the window")
          true
          (post <= 2. +. eps);
        Alcotest.(check bool)
          (ctx scheme ep idx "timeout re-enters slow start")
          true
          (Conformance.in_slow_start rig 0)
      | Conformance.Sibling_ack _ ->
        Alcotest.(check bool)
          (ctx scheme ep idx "sibling progress never shrinks subflow 0")
          true
          (post >= pre -. eps)))
    ep.Conformance.steps;
  ignore !seen_ce;
  ignore !seen_loss

let test_matrix () =
  List.iter
    (fun profile ->
      List.iter (check_episode profile) Conformance.episodes)
    profiles

(* Heterogeneous-RTT stress: every scheme driven through the rtt-asym
   episode on the 100 µs / 20 ms rig (a 200:1 ratio). The rate terms
   (1/srtt² in LIA/OLIA, 1/srtt in Balia) span 4+ orders of magnitude
   across siblings here, so the assertions are the safety core: windows
   stay finite, at least one segment, and bounded — a coupling that
   mishandles the ratio shows up as a NaN, a collapse below 1, or a
   runaway increase within the episode's ~75 steps. *)
let test_rtt_asym_matrix () =
  let ep = Conformance.asym_episode in
  List.iter
    (fun scheme ->
      let rig = Conformance.make_asym_rig scheme in
      List.iteri
        (fun idx step ->
          let pre = Conformance.cwnd rig 0 in
          Conformance.apply rig step;
          let post = Conformance.cwnd rig 0 in
          let total = Conformance.total_cwnd rig in
          Alcotest.(check bool)
            (ctx scheme ep idx "cwnd finite under 200:1 RTT ratio")
            true
            (Float.is_finite post && Float.is_finite total);
          Alcotest.(check bool)
            (ctx scheme ep idx "cwnd >= 1 under 200:1 RTT ratio")
            true
            (post >= 1. -. eps);
          Alcotest.(check bool)
            (ctx scheme ep idx "aggregate window bounded")
            true
            (total < 1e6);
          match step with
          | Conformance.Ack _ | Conformance.Sibling_ack _ ->
            Alcotest.(check bool)
              (ctx scheme ep idx "clean progress never shrinks subflow 0")
              true
              (post >= pre -. eps)
          | Conformance.Timeout ->
            Alcotest.(check bool)
              (ctx scheme ep idx "timeout collapses despite slow sibling")
              true
              (post <= 2. +. eps)
          | Conformance.Ce_ack _ | Conformance.Fast_retransmit -> ())
        ep.Conformance.steps)
    Conformance.schemes

let test_profiles_cover_schemes () =
  Alcotest.(check int)
    "one profile per conformance scheme"
    (List.length Conformance.schemes)
    (List.length profiles);
  List.iter
    (fun scheme ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has a profile" (Scheme.name scheme))
        true
        (List.exists (fun p -> p.scheme = scheme) profiles))
    Conformance.schemes

(* run from the test directory ([dune runtest]) or the repo root *)
let expected_file =
  if Sys.file_exists "conformance.expected" then "conformance.expected"
  else "test/conformance.expected"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden_traces () =
  let expected = read_file expected_file in
  let actual = Conformance.render_all () in
  if not (String.equal expected actual) then begin
    (* dump the fresh traces next to the expectation so CI can upload
       the diff as an artifact *)
    let oc = open_out_bin (Filename.dirname expected_file ^ "/conformance.actual") in
    output_string oc actual;
    close_out oc
  end;
  Alcotest.(check bool)
    "golden cwnd traces match test/conformance.expected (regenerate with \
     dune exec test/conformance_gen.exe)"
    true
    (String.equal expected actual)

(* Every subflow's controller carries its scheme's name: single-path
   schemes name their body, coupled ones the coupling that built them. *)
let test_controller_names () =
  let expected =
    [ "dctcp"; "reno"; "lia"; "olia"; "xmp"; "balia"; "veno"; "amp" ]
  in
  Alcotest.(check int) "one name per scheme" (List.length expected)
    (List.length Conformance.schemes);
  List.iter2
    (fun scheme name ->
      let rig = Conformance.make_rig scheme in
      Array.iteri
        (fun i (sub : Conformance.sub) ->
          Alcotest.(check string)
            (Printf.sprintf "%s subflow %d" (Scheme.name scheme) i)
            name (Xmp_transport.Cc.name sub.cc))
        rig.Conformance.subs)
    Conformance.schemes expected

let suite =
  [
    Alcotest.test_case "property matrix over all schemes x episodes" `Quick
      test_matrix;
    Alcotest.test_case "rtt-asym: all schemes bounded at 200:1 ratios" `Quick
      test_rtt_asym_matrix;
    Alcotest.test_case "profiles cover the scheme list" `Quick
      test_profiles_cover_schemes;
    Alcotest.test_case "golden cwnd traces" `Quick test_golden_traces;
    Alcotest.test_case "controller names" `Quick test_controller_names;
  ]
