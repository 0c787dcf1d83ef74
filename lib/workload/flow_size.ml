(* Empirical flow-size distributions as piecewise-linear inverse CDFs.
   Sizes are in 1460-byte segments (the simulator's payload unit). *)

type t = {
  name : string;
  (* strictly increasing cumulative probabilities paired with
     nondecreasing sizes; last prob is 1 *)
  sizes : float array;
  probs : float array;
}

let name t = t.name

let of_points ~name points =
  if points = [] then invalid_arg "Flow_size.of_points: empty";
  let sizes = Array.of_list (List.map fst points) in
  let probs = Array.of_list (List.map snd points) in
  let n = Array.length sizes in
  if probs.(n - 1) <> 1. then
    invalid_arg "Flow_size.of_points: last probability must be 1";
  for i = 0 to n - 1 do
    if not (Float.is_finite sizes.(i)) then
      invalid_arg "Flow_size.of_points: sizes must be finite";
    if sizes.(i) < 1. then
      invalid_arg "Flow_size.of_points: sizes must be at least one segment";
    (* written so that a nan probability fails it too *)
    if not (probs.(i) >= 0. && probs.(i) <= 1.) then
      invalid_arg "Flow_size.of_points: probabilities must lie in [0,1]";
    if i > 0 && (sizes.(i) < sizes.(i - 1) || probs.(i) < probs.(i - 1)) then
      invalid_arg "Flow_size.of_points: points must be nondecreasing"
  done;
  { name; sizes; probs }

(* Web-search (DCTCP-lineage) and data-mining (VL2-lineage) flow-size
   CDFs as used across the pFabric/PIAS evaluation line, quantized to
   1460-byte segments. Web search mixes short queries with multi-MB
   background updates; data mining is far more skewed — half the flows
   are a single segment while the top 1% reach hundreds of MB. *)
let web_search =
  of_points ~name:"websearch"
    [
      (1., 0.);
      (6., 0.15);
      (13., 0.2);
      (19., 0.3);
      (33., 0.4);
      (53., 0.53);
      (133., 0.6);
      (667., 0.7);
      (1333., 0.8);
      (3333., 0.9);
      (6667., 0.97);
      (20000., 1.);
    ]

let data_mining =
  of_points ~name:"datamining"
    [
      (1., 0.);
      (1., 0.5);
      (2., 0.6);
      (3., 0.7);
      (7., 0.8);
      (267., 0.9);
      (2107., 0.95);
      (66667., 0.99);
      (666667., 1.);
    ]

(* E[S] = ∫₀¹ S(p) dp over the piecewise-linear inverse CDF: trapezoids
   between knots, plus the point mass of any leading probability jump
   (probs.(0) > 0 means a fraction probs.(0) of flows sit exactly at the
   smallest size). *)
let mean_segments t =
  let n = Array.length t.sizes in
  let acc = ref (t.probs.(0) *. t.sizes.(0)) in
  for i = 0 to n - 2 do
    acc :=
      !acc
      +. (t.probs.(i + 1) -. t.probs.(i))
         *. (t.sizes.(i) +. t.sizes.(i + 1))
         /. 2.
  done;
  !acc

let sample_float t rng =
  let u = Random.State.float rng 1. in
  let n = Array.length t.probs in
  if u <= t.probs.(0) then t.sizes.(0)
  else begin
    (* binary search for the knot interval with probs.(lo) < u <= probs.(hi) *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.probs.(mid) < u then lo := mid else hi := mid
    done;
    let p0 = t.probs.(!lo) and p1 = t.probs.(!hi) in
    let s0 = t.sizes.(!lo) and s1 = t.sizes.(!hi) in
    if p1 <= p0 then s1
    else s0 +. ((u -. p0) /. (p1 -. p0) *. (s1 -. s0))
  end

let sample t rng =
  Stdlib.max 1 (int_of_float (Float.round (sample_float t rng)))

let scaled t factor =
  if factor <= 0. then invalid_arg "Flow_size.scaled: factor";
  if factor = 1. then t
  else
    {
      t with
      name = Printf.sprintf "%s/x%.4g" t.name factor;
      sizes = Array.map (fun s -> Float.max 1. (s *. factor)) t.sizes;
    }

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let points = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then
             match String.split_on_char ' ' line |> List.filter (( <> ) "") with
             | [ s; p ] -> (
               match (float_of_string_opt s, float_of_string_opt p) with
               | Some s, Some p -> points := (s, p) :: !points
               | _ ->
                 invalid_arg
                   (Printf.sprintf "Flow_size.of_file: %s: bad line %S" path
                      line))
             | _ ->
               invalid_arg
                 (Printf.sprintf
                    "Flow_size.of_file: %s: want \"size_segments prob\", got %S"
                    path line)
         done
       with End_of_file -> ());
      of_points ~name:(Filename.remove_extension (Filename.basename path))
        (List.rev !points))
