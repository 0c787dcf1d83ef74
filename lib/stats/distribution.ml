type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { samples = [||]; len = 0; sorted = true }

let add t x =
  if t.len = Array.length t.samples then begin
    let cap = if t.len = 0 then 64 else t.len * 2 in
    let arr = Array.make cap 0. in
    Array.blit t.samples 0 arr 0 t.len;
    t.samples <- arr
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len
let is_empty t = t.len = 0

(* In-place heapsort over the live prefix [0, len). The backing array is
   over-allocated (doubling growth), so [Array.sort] on the whole array
   would order the dead tail too, and the previous copy-out/copy-back
   allocated a full live-size scratch array on every re-sort — the
   dominant allocation when percentile reads interleave with adds at
   millions of samples. Heapsort visits only [0, len), allocates nothing
   and, [Float.compare] being a total order, yields the same sorted
   sequence as any comparison sort. *)
let sift_down a len root =
  let x = Array.unsafe_get a root in
  let i = ref root in
  let continue = ref true in
  while !continue do
    let child = (2 * !i) + 1 in
    if child >= len then continue := false
    else begin
      let child =
        if
          child + 1 < len
          && Float.compare (Array.unsafe_get a child)
               (Array.unsafe_get a (child + 1))
             < 0
        then child + 1
        else child
      in
      if Float.compare x (Array.unsafe_get a child) < 0 then begin
        Array.unsafe_set a !i (Array.unsafe_get a child);
        i := child
      end
      else continue := false
    end
  done;
  Array.unsafe_set a !i x

let ensure_sorted t =
  if not t.sorted then begin
    let a = t.samples and len = t.len in
    for root = (len / 2) - 1 downto 0 do
      sift_down a len root
    done;
    for last = len - 1 downto 1 do
      let x = Array.unsafe_get a last in
      Array.unsafe_set a last (Array.unsafe_get a 0);
      Array.unsafe_set a 0 x;
      sift_down a last 0
    done;
    t.sorted <- true
  end

let mean t =
  if t.len = 0 then 0.
  else begin
    let sum = ref 0. in
    for i = 0 to t.len - 1 do
      sum := !sum +. t.samples.(i)
    done;
    !sum /. float_of_int t.len
  end

let percentile t p =
  if t.len = 0 then invalid_arg "Distribution.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Distribution.percentile: range";
  ensure_sorted t;
  let rank = p /. 100. *. float_of_int (t.len - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = Stdlib.min (lo + 1) (t.len - 1) in
  let frac = rank -. float_of_int lo in
  t.samples.(lo) +. (frac *. (t.samples.(hi) -. t.samples.(lo)))

let min t =
  ensure_sorted t;
  if t.len = 0 then invalid_arg "Distribution.min: empty" else t.samples.(0)

let max t =
  ensure_sorted t;
  if t.len = 0 then invalid_arg "Distribution.max: empty"
  else t.samples.(t.len - 1)

let five_number t =
  (min t, percentile t 10., percentile t 50., percentile t 90., max t)

let cdf_points t n =
  if t.len = 0 || n <= 0 then []
  else begin
    ensure_sorted t;
    let point i =
      let p = float_of_int (i + 1) /. float_of_int n in
      let idx =
        Stdlib.min (t.len - 1)
          (int_of_float (Float.ceil (p *. float_of_int t.len)) - 1)
      in
      (t.samples.(Stdlib.max 0 idx), p)
    in
    List.init n point
  end

let fraction_above t threshold =
  if t.len = 0 then 0.
  else begin
    let above = ref 0 in
    for i = 0 to t.len - 1 do
      if t.samples.(i) > threshold then incr above
    done;
    float_of_int !above /. float_of_int t.len
  end

let values t =
  ensure_sorted t;
  Array.sub t.samples 0 t.len
