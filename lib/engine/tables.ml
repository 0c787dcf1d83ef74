let piece = 256

let init n f =
  if n <= piece then Array.init n f
  else
    Array.concat
      (List.init
         ((n + piece - 1) / piece)
         (fun p ->
           let base = p * piece in
           Array.init (Int.min piece (n - base)) (fun i -> f (base + i))))

let grow a ~first x =
  if Array.length a = 0 then Array.make first x else Array.append a a
