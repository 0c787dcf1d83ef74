type t = Bytes.t

let make n f =
  let b = Bytes.create n in
  let rec fill i =
    i = n
    ||
    let v = f i in
    v >= 0 && v < 256
    && begin
      Bytes.set b i (Char.unsafe_chr v);
      fill (i + 1)
    end
  in
  if fill 0 then b else Bytes.empty

let[@inline] find t i =
  if i < Bytes.length t then Char.code (Bytes.get t i) else -1
