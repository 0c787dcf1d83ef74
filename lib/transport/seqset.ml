(* Sorted list of disjoint, non-adjacent, non-empty [start, stop)
   intervals over segment numbers.

   Replaces the per-segment hashtables the SACK scoreboard and the
   receiver reorder buffer used to keep: membership and block extraction
   become O(blocks) instead of O(segments) + a sort, and the number of
   blocks is bounded by the number of holes (= loss events in flight),
   not by how much data sits above a hole. *)

type t = (int * int) list

let empty = []

let is_empty = function [] -> true | _ :: _ -> false

let blocks t = t

let n_blocks = List.length

let cardinal t = List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 t

let rec mem x = function
  | [] -> false
  | (a, b) :: rest -> if x < a then false else if x < b then true else mem x rest

let add_range ~start ~stop t =
  if start >= stop then t
  else
    (* walk left of the insertion point, then swallow every interval that
       overlaps or touches [start, stop) *)
    let rec place acc start stop = function
      | [] -> List.rev_append acc [ (start, stop) ]
      | ((a, b) as iv) :: rest ->
        if b < start then place (iv :: acc) start stop rest
        else if stop < a then List.rev_append acc ((start, stop) :: iv :: rest)
        else place acc (Int.min a start) (Int.max b stop) rest
    in
    place [] start stop t

let add x t = add_range ~start:x ~stop:(x + 1) t

let rec remove_below bound t =
  match t with
  | [] -> []
  | (a, b) :: rest ->
    if b <= bound then remove_below bound rest
    else if a < bound then (bound, b) :: rest
    else t

let rec first_absent_from x = function
  | [] -> x
  | (a, b) :: rest ->
    if x < a then x
    else if x < b then first_absent_from b rest
    else first_absent_from x rest

let consume_from x t =
  match t with (a, b) :: rest when a = x -> (b, rest) | _ -> (x, t)
