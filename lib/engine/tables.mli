(** Pointer tables built and grown without a forced minor collection.

    [Array.make n fill] with [n] over 256 (the largest block the minor
    heap takes) and a [fill] still in the minor heap forces a minor
    collection first, and [Array.init] makes its array with its first
    element as the fill. [Array.sub], [Array.append] and [Array.concat]
    copy with [caml_initialize] and force nothing, so the tables of a
    run's engine and fabric are made with them. *)

val init : int -> (int -> 'a) -> 'a array
(** [init n f] is [Array.init n f], [f] called in index order, made in
    pieces of at most 256 cells that are then concatenated. *)

val grow : 'a array -> first:int -> 'a -> 'a array
(** [grow a ~first x] is the next table after a full [a]: [first]
    copies of [x] when [a] is empty ([first] at most 256), otherwise [a]
    twice over. The cells past [a]'s length repeat its values until the
    caller writes them. *)
