exception Violation of string

(* Invariants fire on the hottest dispatch paths and the simulator shards
   across OCaml 5 Domains. The checks-run tally increments on every
   check, and a lock-prefixed RMW per check would dominate the very
   dispatch paths the checks guard. Each domain counts into its own cell
   (registered once in a global list); readers sum the cells. A cell has
   one writer, so the sum is exact once the writing domains are
   quiescent — which is when the test-facing [checks_run] is read. *)
(* xmplint: allow mutable-global — registry of per-domain tally cells;
   each ref has exactly one writing domain, readers sum at quiescence *)
let check_cells = Atomic.make ([] : int ref list)

(* Counting is armed lazily by the first [reset_counters] (the tests that
   assert exact tallies always reset first). Until then the hot path pays
   one predictable-false branch instead of a domain-local increment. *)
let counting = Atomic.make false

let check_cell_key =
  Domain.DLS.new_key (fun () ->
      let cell = ref 0 in
      let rec register () =
        let cur = Atomic.get check_cells in
        if not (Atomic.compare_and_set check_cells cur (cell :: cur)) then
          register ()
      in
      register ();
      cell)

let checks_run () =
  List.fold_left (fun acc c -> acc + !c) 0 (Atomic.get check_cells)

let reset_counters () =
  Atomic.set counting true;
  List.iter (fun c -> c := 0) (Atomic.get check_cells)

let fail ~name detail =
  raise
    (Violation (Printf.sprintf "invariant %s violated: %s" name (detail ())))

(* Out of line: only armed counting pays the domain-local lookup, and
   the inlined [holds] stays one load and one branch. *)
let count () = incr (Domain.DLS.get check_cell_key)

let[@inline] holds cond =
  if Atomic.get counting then count ();
  cond
