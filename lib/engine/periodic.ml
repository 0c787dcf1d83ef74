let rec schedule sim ~interval callback delay =
  Sim.after sim delay (fun () ->
      callback ();
      schedule sim ~interval callback interval)

let start ?first_after sim ~interval callback =
  if Time.compare interval Time.zero <= 0 then
    invalid_arg "Periodic.start: interval";
  let first = match first_after with Some d -> d | None -> interval in
  schedule sim ~interval callback first
