module Params = Xmp_core.Params
module Time = Xmp_engine.Time
module Units = Xmp_net.Units

let checkf = Alcotest.(check (float 1e-6))

let test_default () =
  Alcotest.(check int) "beta" 4 Params.default.Params.beta;
  Alcotest.(check int) "k" 10 Params.default.Params.k

let test_validation () =
  Alcotest.check_raises "beta < 2"
    (Invalid_argument "Params.make: beta must be >= 2") (fun () ->
      ignore (Params.make ~beta:1 ~k:10));
  Alcotest.check_raises "k < 1"
    (Invalid_argument "Params.make: k must be >= 1") (fun () ->
      ignore (Params.make ~beta:4 ~k:0))

let test_bdp () =
  (* paper's example: 1 Gbps x 225 us / (8 * 1500) ≈ 18.75 packets *)
  checkf "paper bdp" 18.75
    (Params.bdp_packets ~rate:(Units.gbps 1.) ~rtt:(Time.us 225)
       ~packet_bytes:1500);
  (* and the DCN setting: 1 Gbps x 400 us ≈ 33 packets *)
  Alcotest.(check bool) "DCN bdp ~33" true
    (Float.abs
       (Params.bdp_packets ~rate:(Units.gbps 1.) ~rtt:(Time.us 400)
          ~packet_bytes:1500
       -. 33.3)
    < 0.1)

let test_min_k () =
  (* Equation 1: K >= BDP / (beta - 1) *)
  Alcotest.(check int) "beta 2 needs K >= BDP" 19
    (Params.min_k ~bdp_packets:18.75 ~beta:2);
  Alcotest.(check int) "beta 4" 7 (Params.min_k ~bdp_packets:18.75 ~beta:4);
  Alcotest.(check int) "at least 1" 1 (Params.min_k ~bdp_packets:0.1 ~beta:4)

let test_sufficient () =
  let p = Params.make ~beta:4 ~k:10 in
  Alcotest.(check bool) "10 >= 7" true (Params.sufficient p ~bdp_packets:18.75);
  Alcotest.(check bool) "10 < 12" false
    (Params.sufficient p ~bdp_packets:34.)

let test_for_network () =
  let p =
    Params.for_network ~rate:(Units.gbps 1.) ~rtt:(Time.us 225) ~beta:4
  in
  Alcotest.(check int) "minimal K" 7 p.Params.k;
  Alcotest.(check int) "beta carried" 4 p.Params.beta

let prop_eq1_monotone_in_beta =
  QCheck.Test.make ~count:100
    ~name:"Equation 1 bound shrinks as beta grows"
    QCheck.(pair (float_range 1. 200.) (int_range 2 19))
    (fun (bdp, beta) ->
      Params.min_k ~bdp_packets:bdp ~beta
      >= Params.min_k ~bdp_packets:bdp ~beta:(beta + 1))

let suite =
  [
    Alcotest.test_case "defaults" `Quick test_default;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "bdp computation" `Quick test_bdp;
    Alcotest.test_case "equation 1 bound" `Quick test_min_k;
    Alcotest.test_case "sufficiency check" `Quick test_sufficient;
    Alcotest.test_case "for_network" `Quick test_for_network;
    QCheck_alcotest.to_alcotest prop_eq1_monotone_in_beta;
  ]
