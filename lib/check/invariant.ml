exception Violation of string

type mode = Raise | Warn

(* The toggles are atomics: invariants fire on the hottest dispatch paths
   and the simulator shards across OCaml 5 Domains, so plain refs here
   would be data races. Atomic.get is a plain load on the flat-footprint
   runtimes we target, so the enabled check stays one branch. *)
let enabled_flag = Atomic.make true
let mode_flag = Atomic.make Raise
let violation_count = Atomic.make 0

(* The checks-run tally is different: it increments on every check, and a
   lock-prefixed RMW per check would dominate the very dispatch paths the
   checks guard. Each domain counts into its own cell (registered once in
   a global list); readers sum the cells. A cell has one writer, so the
   sum is exact once the writing domains are quiescent — which is when
   the test-facing [checks_run] is read. *)
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

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let set_mode m = Atomic.set mode_flag m

let checks_run () =
  List.fold_left (fun acc c -> acc + !c) 0 (Atomic.get check_cells)

let violations () = Atomic.get violation_count

let reset_counters () =
  Atomic.set counting true;
  List.iter (fun c -> c := 0) (Atomic.get check_cells);
  Atomic.set violation_count 0

let fail ~name detail =
  Atomic.incr violation_count;
  let msg = Printf.sprintf "invariant %s violated: %s" name (detail ()) in
  match Atomic.get mode_flag with
  | Raise -> raise (Violation msg)
  | Warn -> Format.eprintf "[invariant] %s@." msg

let holds cond =
  if Atomic.get enabled_flag then begin
    if Atomic.get counting then incr (Domain.DLS.get check_cell_key);
    cond
  end
  else true

let with_enabled b f =
  let saved = Atomic.get enabled_flag in
  Atomic.set enabled_flag b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag saved) f
