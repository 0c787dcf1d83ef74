let jain xs =
  let sum = List.fold_left ( +. ) 0. xs in
  let sumsq = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
  let n = List.length xs in
  if n = 0 || sumsq = 0. then 1.
  else sum *. sum /. (float_of_int n *. sumsq)
