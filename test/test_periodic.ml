module Sim = Xmp_engine.Sim
module Periodic = Xmp_engine.Periodic
module Time = Xmp_engine.Time

let test_fires_on_interval () =
  let sim = Sim.create () in
  let fired = ref [] in
  Periodic.start sim ~interval:(Time.ms 10) (fun () ->
      fired := Sim.now sim :: !fired);
  Sim.run ~until:(Time.ms 35) sim;
  Alcotest.(check (list int))
    "10, 20, 30 ms"
    [ Time.ms 10; Time.ms 20; Time.ms 30 ]
    (List.rev !fired)

let test_first_after () =
  let sim = Sim.create () in
  let fired = ref [] in
  Periodic.start sim ~first_after:(Time.ms 5) ~interval:(Time.ms 10)
    (fun () -> fired := Sim.now sim :: !fired);
  Sim.run ~until:(Time.ms 30) sim;
  Alcotest.(check (list int))
    "5, 15, 25 ms"
    [ Time.ms 5; Time.ms 15; Time.ms 25 ]
    (List.rev !fired)

let test_validation () =
  let sim = Sim.create () in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Periodic.start: interval") (fun () ->
      Periodic.start sim ~interval:0 ignore)

let suite =
  [
    Alcotest.test_case "fires on interval" `Quick test_fires_on_interval;
    Alcotest.test_case "first_after" `Quick test_first_after;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
