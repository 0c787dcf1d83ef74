(* xmplint analysis passes.

   Every pass works on the position-tracked token stream produced by
   {!Lexer.lex} (and, for the declaration-level passes, on the toplevel
   items recovered by {!Lexer.items}). Rules are scoped by the top-level
   directory a file lives in; findings go through a {!Report.t} and are
   filtered against waiver pragmas afterwards (see [lint_source]).

   Legacy passes (PR 1, re-hosted on the token stream): wall-clock,
   unix-in-lib, unseeded-random, obj-magic, poly-compare-time,
   bare-compare, stdout-in-lib, direct-printf.

   Declaration-level passes (this PR):
   - [mutable-global]  module-toplevel mutable state in lib/ — a latent
     data race under OCaml 5 Domains sharding and a determinism hazard;
     rejected unless converted to Atomic.t / localized, or waived with a
     *justified* pragma.
   - [unit-suffix]     additive/comparison operators joining identifiers
     whose unit suffixes disagree (_ns vs _us, _bytes vs _pkts, …)
     without an explicit conversion in the surrounding expression.
   - [hashtbl-order]   Hashtbl.iter / Hashtbl.fold in lib/ without the
     sorted-iteration idiom — iteration order is unspecified and
     hash-function dependent, so it must never reach output or digests.

   Token-stream passes:
   - [packet-release]  a lib/ file that acquires pooled packets but never
     releases one.
   - [bare-sim]        Sim.create / Network.create outside Shard: every
     run is a cluster, so run-wide hooks (the shard barrier, the end of
     the run) have one home.
   - [poly-minmax]     Stdlib.min / Stdlib.max, qualified or bare, in the
     simulator's hot-path libraries: each call is a generic
     caml_lessequal; Int.min / Float.max / Time.min are not.

   Whole-tree passes, run once every file is linted:
   - [missing-mli]     a lib/ .ml without an interface.
   - [unused-export]   a lib/ interface val no other unit's .ml uses. *)

type category = Lib | Bin | Examples | Test | OtherDir

let category_of path =
  match String.index_opt path '/' with
  | None -> OtherDir
  | Some i -> (
    match String.sub path 0 i with
    | "lib" -> Lib
    | "bin" -> Bin
    | "examples" -> Examples
    | "test" -> Test
    | _ -> OtherDir)

(* File-level waivers: (rule, exact path) pairs. *)
let file_allowlist =
  [
    (* the scenario runner forks workers and times whole simulations; it
       is process orchestration, not simulator code *)
    ("wall-clock", "lib/runner/runner.ml");
    ("unix-in-lib", "lib/runner/runner.ml");
    (* the sanctioned stdout sinks *)
    ("stdout-in-lib", "lib/stats/table.ml");
    ("stdout-in-lib", "lib/experiments/render.ml");
    (* the runner replays captured scenario output to stdout *)
    ("stdout-in-lib", "lib/runner/runner.ml");
    (* the sanctioned stderr sink: the runner's progress lines *)
    ("direct-printf", "lib/runner/runner.ml");
    (* the transport acquires pooled packets and hands ownership to
       Node.send; the network layer (links, discs, endpoints) releases *)
    ("packet-release", "lib/transport/tcp.ml");
    (* the one place a simulator and its network are built *)
    ("bare-sim", "lib/net/shard.ml");
  ]

let file_allowed rule path = List.mem (rule, path) file_allowlist

let wall_clock_idents =
  [
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.gmtime";
    "Unix.localtime";
    "Sys.time";
  ]

let stdout_idents =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "print_bytes";
    "Printf.printf";
    "Format.printf";
    "Format.print_string";
    "Format.print_newline";
    "Format.print_flush";
    "Stdlib.print_string";
    "Stdlib.print_endline";
    "Stdlib.print_newline";
    "Stdlib.print_char";
    "Stdlib.print_int";
    "Stdlib.print_float";
  ]

let stderr_idents =
  [
    "Printf.eprintf";
    "Format.eprintf";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
    "prerr_char";
    "prerr_int";
    "prerr_float";
    "prerr_bytes";
    "Stdlib.prerr_string";
    "Stdlib.prerr_endline";
    "Stdlib.prerr_newline";
  ]

let bare_compare_idents = [ "compare"; "Stdlib.compare"; "Hashtbl.hash" ]

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let has_prefix s pre =
  let ls = String.length s and lp = String.length pre in
  ls >= lp && String.sub s 0 lp = pre

let last_component name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

(* Identifiers that denote simulated timestamps (or RTTs, which are
   Time.t in the transport layer). Comparisons adjacent to one of these
   must go through Time.compare / Int.compare. *)
let timeish name =
  let last = last_component name in
  List.mem last
    [ "time"; "now"; "ts"; "deadline"; "interval"; "rtt"; "srtt"; "min_rtt" ]
  || has_suffix last "_time"
  || has_suffix last "_deadline"
  || has_suffix last "_at"
  || has_suffix last "_ts"

let comparison_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* ------------------------------------------------------------------ *)
(* Token-stream passes (position independent)                           *)

open Lexer

let check_idents rep ~path ~cat (toks : token array) =
  Array.iter
    (fun tok ->
      match tok.kind with
      | Ident name ->
        let line = tok.line in
        if
          List.mem name wall_clock_idents
          && not (file_allowed "wall-clock" path)
        then
          Report.add rep ~path ~line ~rule:"wall-clock"
            (Printf.sprintf
               "%s reads the wall clock; simulated time must come from \
                Sim.now"
               name);
        if name = "Obj.magic" then
          Report.add rep ~path ~line ~rule:"obj-magic"
            "Obj.magic defeats the type system";
        if name = "Random.self_init" || name = "Random.State.make_self_init"
        then
          Report.add rep ~path ~line ~rule:"unseeded-random"
            (name ^ " is nondeterministic; seed explicitly")
        else if
          has_prefix name "Random."
          && not (name = "Random.State" || has_prefix name "Random.State.")
        then
          Report.add rep ~path ~line ~rule:"unseeded-random"
            (name
           ^ " uses the global RNG; use Random.State.* with an explicit \
              seed (Sim.rng)");
        if
          (cat = Lib || cat = Bin || cat = Examples)
          && has_prefix name "Unix."
          && not (file_allowed "unix-in-lib" path)
          && not (file_allowed "wall-clock" path)
        then
          Report.add rep ~path ~line ~rule:"unix-in-lib"
            (name ^ ": the Unix module is off-limits in simulator code");
        if
          cat = Lib
          && List.mem name stdout_idents
          && not (file_allowed "stdout-in-lib" path)
        then
          Report.add rep ~path ~line ~rule:"stdout-in-lib"
            (name
           ^ " prints to stdout from lib/; route through Render/Table");
        if
          cat = Lib
          && List.mem name stderr_idents
          && not (file_allowed "direct-printf" path)
        then
          Report.add rep ~path ~line ~rule:"direct-printf"
            (name
           ^ " is an ad-hoc stderr diagnostic in lib/; record telemetry \
              instead")
      | Keyword _ | Op _ | Num _ | Str | Punct _ -> ())
    toks

(* Pooled-packet balance: Packet.data/ack/load acquire a record
   from the domain-local pool, and exactly one owner must release it
   (or hand it to a sink that does). A lib/ file that acquires but
   never mentions Packet.release is either leaking pool records —
   silent, since the pool just grows — or transferring ownership, in
   which case it belongs on the allowlist with the hand-off spelled
   out. Exact-ident matching keeps Packet.data_wire_bytes and friends
   out of scope. *)
let packet_acquire_idents =
  [
    "Packet.data"; "Packet.ack"; "Packet.load"; "Xmp_net.Packet.data";
    "Xmp_net.Packet.ack"; "Xmp_net.Packet.load";
  ]

let packet_release_idents = [ "Packet.release"; "Xmp_net.Packet.release" ]

let check_packet_release rep ~path ~cat (toks : token array) =
  if cat = Lib && not (file_allowed "packet-release" path) then begin
    let first_acquire = ref None in
    let releases = ref false in
    Array.iter
      (fun (tok : token) ->
        match tok.kind with
        | Ident name ->
          if List.mem name packet_acquire_idents && !first_acquire = None
          then first_acquire := Some (tok.line, name);
          if List.mem name packet_release_idents then releases := true
        | Keyword _ | Op _ | Num _ | Str | Punct _ -> ())
      toks;
    match !first_acquire with
    | Some (line, name) when not !releases ->
      Report.add rep ~path ~line ~rule:"packet-release"
        (name
       ^ " acquires a pooled packet but this file never calls \
          Packet.release; release it, hand it to a releasing sink, or \
          allowlist the file as an ownership hand-off point")
    | Some _ | None -> ()
  end

(* Every run is a cluster: a bare simulator or network in simulator,
   CLI or example code escapes the shard barrier and the end-of-run
   hook that run-wide checks attach to. Matched on the last two path
   components, so Xmp_engine.Sim.create and Net.Network.create count;
   tests build bare fixtures freely. *)
let bare_sim_idents = [ "Sim.create"; "Network.create" ]

let check_bare_sim rep ~path ~cat (toks : token array) =
  if
    (cat = Lib || cat = Bin || cat = Examples)
    && not (file_allowed "bare-sim" path)
  then
    Array.iter
      (fun (tok : token) ->
        match tok.kind with
        | Ident name
          when List.exists
                 (fun id -> name = id || has_suffix name ("." ^ id))
                 bare_sim_idents ->
          Report.add rep ~path ~line:tok.line ~rule:"bare-sim"
            (name
           ^ " builds a simulation outside a cluster; build on \
              Shard.create ~shards:1 and use Shard.sim / Shard.net")
        | Ident _ | Keyword _ | Op _ | Num _ | Str | Punct _ -> ())
      toks

(* The polymorphic min/max compile to a call of the generic comparison
   even on ints, so the packet and ACK paths use the monomorphic
   Int/Float/Time versions. Scoped to the libraries those paths run in;
   a bare [min]/[max] being defined (let, argument label, record field)
   is not a use, but a local variable of that name is reported like the
   Stdlib function it shadows: rename it. *)
let poly_minmax_dirs =
  [ "lib/engine/"; "lib/net/"; "lib/transport/"; "lib/mptcp/"; "lib/core/" ]

let check_poly_minmax rep ~path (toks : token array) =
  if List.exists (has_prefix path) poly_minmax_dirs then
    Array.iteri
      (fun i (tok : token) ->
        match tok.kind with
        | Ident (("min" | "max" | "Stdlib.min" | "Stdlib.max") as name) ->
          let defined =
            (i > 0
            &&
            match toks.(i - 1).kind with
            | Keyword ("let" | "and" | "val" | "external") | Op ("~" | "?") ->
              true
            | _ -> false)
            || i + 1 < Array.length toks
               &&
               match toks.(i + 1).kind with
               | Op ("=" | ":") -> name = "min" || name = "max"
               | _ -> false
          in
          if not defined then
            Report.add rep ~path ~line:tok.line ~rule:"poly-minmax"
              (name
             ^ " is polymorphic (a generic comparison per call); use \
                Int.min/Int.max, Float.min/Float.max or Time.min/Time.max")
        | Ident _ | Keyword _ | Op _ | Num _ | Str | Punct _ -> ())
      toks

(* ------------------------------------------------------------------ *)
(* Line-scoped passes (ported from the PR 1 scanner; their adjacency
   heuristics are deliberately line-local)                              *)

(* Group the stream into per-line token arrays. *)
let lines_of (toks : token array) : (int * token array) list =
  let acc = ref [] in
  let cur = ref [] in
  let cur_line = ref (-1) in
  let flush () =
    if !cur <> [] then
      acc := (!cur_line, Array.of_list (List.rev !cur)) :: !acc
  in
  Array.iter
    (fun tok ->
      if tok.line <> !cur_line then begin
        flush ();
        cur := [];
        cur_line := tok.line
      end;
      cur := tok :: !cur)
    toks;
  flush ();
  List.rev !acc

let check_bare_compare rep ~path ~cat toks =
  if cat = Lib then
    List.iter
      (fun (line_no, lt) ->
        Array.iteri
          (fun i (tok : token) ->
            match tok.kind with
            | Ident name when List.mem name bare_compare_idents ->
              let prev = if i > 0 then Some lt.(i - 1).kind else None in
              let next =
                if i + 1 < Array.length lt then Some lt.(i + 1).kind else None
              in
              let is_definition =
                match prev with
                | Some (Keyword ("let" | "and" | "val" | "method" | "external"))
                  ->
                  true
                | Some (Op "~") -> true (* labelled argument *)
                | _ -> false
              in
              let is_field_init =
                match next with Some (Op ("=" | ":")) -> true | _ -> false
              in
              if not (is_definition || is_field_init) then
                Report.add rep ~path ~line:line_no ~rule:"bare-compare"
                  (name
                 ^ " is polymorphic; use Time.compare / Int.compare / \
                    Float.compare")
            | _ -> ())
          lt)
      (lines_of toks)

(* A comparison operator already routed through X.compare: the compared
   value is the int result, e.g. [Time.compare a b < 0]. *)
let line_has_compare_call (lt : token array) before =
  let found = ref false in
  Array.iteri
    (fun i (tok : token) ->
      if i < before then
        match tok.kind with
        | Ident name when has_suffix name ".compare" -> found := true
        | _ -> ())
    lt;
  !found

let check_poly_compare rep ~path ~cat toks =
  if cat = Lib then
    List.iter
      (fun (line_no, lt) ->
        Array.iteri
          (fun i (tok : token) ->
            match tok.kind with
            | Op op when List.mem op comparison_ops ->
              let prev = if i > 0 then Some lt.(i - 1).kind else None in
              let prev2 = if i > 1 then Some lt.(i - 2).kind else None in
              let next =
                if i + 1 < Array.length lt then Some lt.(i + 1).kind else None
              in
              let timeish_tok = function
                | Some (Ident name) -> timeish name
                | _ -> false
              in
              let dotted_timeish_tok = function
                | Some (Ident name) -> timeish name && String.contains name '.'
                | _ -> false
              in
              let option_tok = function
                | Some (Ident ("None" | "Some")) -> true
                | _ -> false
              in
              let binding =
                match prev2 with
                | Some (Keyword ("let" | "and" | "rec" | "module" | "type")) ->
                  true
                | _ -> false
              in
              let flagged =
                match op with
                | "=" | "<>" ->
                  (* Equality on a timestamp (or Time.t option) field
                     access. Bare left identifiers are record-literal
                     field initialisers, not comparisons, so only dotted
                     accesses count. *)
                  (not binding)
                  && ((dotted_timeish_tok prev
                      && (option_tok next || timeish_tok next))
                     || (dotted_timeish_tok next && option_tok prev))
                | _ ->
                  (timeish_tok prev || timeish_tok next)
                  && not (line_has_compare_call lt i)
              in
              if flagged then
                Report.add rep ~path ~line:line_no ~rule:"poly-compare-time"
                  (Printf.sprintf
                     "polymorphic %s next to a timestamp; use Time.compare \
                      (or Option.is_none/is_some)"
                     op)
            | _ -> ())
          lt)
      (lines_of toks)

(* ------------------------------------------------------------------ *)
(* [mutable-global] — declaration-level                                 *)

(* Constructors whose result is shared mutable state when bound at
   module toplevel. Atomic.make is deliberately absent: atomics are the
   sanctioned domain-safe representation. *)
let mutable_constructors =
  [
    "ref";
    "Hashtbl.create";
    "Buffer.create";
    "Bytes.create";
    "Bytes.make";
    "Array.make";
    "Array.create_float";
    "Array.init";
    "Queue.create";
    "Stack.create";
    "Weak.create";
  ]

(* Field names declared [mutable] by type items in this file; a toplevel
   record literal initialising one of them is shared mutable state. *)
let mutable_fields_of_items items =
  List.fold_left
    (fun acc (it : item) ->
      if it.head <> "type" then acc
      else
        let acc = ref acc in
        Array.iteri
          (fun i (tok : token) ->
            match tok.kind with
            | Keyword "mutable" when i + 1 < Array.length it.toks -> (
              match it.toks.(i + 1).kind with
              | Ident f -> acc := f :: !acc
              | _ -> ())
            | _ -> ())
          it.toks;
        !acc)
    [] items

(* For a [let]/[and] item, classify the binding: [Some (name, rhs_start)]
   when it is a *value* binding (no parameters — the right-hand side is
   evaluated once, at module init), [None] for function bindings, unit
   bindings and destructuring patterns. *)
let value_binding (it : item) =
  let n = Array.length it.toks in
  let idx = ref 1 in
  let skip_keywords () =
    while
      !idx < n
      && (match it.toks.(!idx).kind with
         | Keyword ("rec" | "nonrec") -> true
         | _ -> false)
    do
      incr idx
    done
  in
  skip_keywords ();
  if !idx >= n then None
  else
    match it.toks.(!idx).kind with
    | Ident name -> (
      if !idx + 1 >= n then None
      else
        match it.toks.(!idx + 1).kind with
        | Op "=" -> Some (name, !idx + 2)
        | Op ":" ->
          (* [let name : ty = rhs] — scan for the '=' ending the
             annotation at bracket depth 0 *)
          let depth = ref 0 in
          let j = ref (!idx + 2) in
          let res = ref None in
          while !res = None && !j < n do
            (match it.toks.(!j).kind with
            | Punct ('(' | '[' | '{') -> incr depth
            | Punct (')' | ']' | '}') -> decr depth
            | Op "=" when !depth = 0 -> res := Some (name, !j + 1)
            | _ -> ());
            incr j
          done;
          !res
        | _ -> None (* parameters: a function binding *))
    | _ -> None (* unit / tuple / record pattern *)

let check_mutable_global rep ~path ~cat items =
  if cat = Lib then
  let mutable_fields = mutable_fields_of_items items in
  List.iter
    (fun (it : item) ->
      if it.head = "let" || it.head = "and" then
        match value_binding it with
        | None -> ()
        | Some (name, rhs_start) ->
          let n = Array.length it.toks in
          (* stop at a lambda: anything it allocates happens per call *)
          let rhs_end = ref n in
          (try
             for j = rhs_start to n - 1 do
               match it.toks.(j).kind with
               | Keyword ("fun" | "function") ->
                 rhs_end := j;
                 raise Exit
               | _ -> ()
             done
           with Exit -> ());
          let flagged = ref None in
          let saw_brace = ref false in
          for j = rhs_start to !rhs_end - 1 do
            match it.toks.(j).kind with
            | Punct '{' -> saw_brace := true
            | Ident id when !flagged = None ->
              if List.mem id mutable_constructors then
                flagged := Some (it.toks.(j).line, id)
              else if
                !saw_brace
                && List.mem id mutable_fields
                && j + 1 < n
                && (match it.toks.(j + 1).kind with
                   | Op "=" -> true
                   | _ -> false)
              then
                flagged :=
                  Some (it.toks.(j).line, "record with mutable field " ^ id)
            | _ -> ()
          done;
          (match !flagged with
          | Some (line, what) ->
            Report.add rep ~path ~line ~rule:"mutable-global" ~decl:name
              (Printf.sprintf
                 "toplevel binding '%s' holds shared mutable state (%s): a \
                  data race once the simulator shards across Domains. \
                  Convert to Atomic.t, localize it, or annotate (* xmplint: \
                  allow mutable-global — <justification> *)"
                 name what)
          | None -> ()))
    items

(* ------------------------------------------------------------------ *)
(* [unit-suffix] — mixed-unit arithmetic                                *)

let unit_of_ident name =
  let last = String.lowercase_ascii (last_component name) in
  if has_suffix last "_ns" then Some "ns"
  else if has_suffix last "_us" then Some "us"
  else if has_suffix last "_ms" then Some "ms"
  else if has_suffix last "_sec" || has_suffix last "_s" then Some "s"
  else if has_suffix last "_bytes" then Some "bytes"
  else if has_suffix last "_bits" then Some "bits"
  else if has_suffix last "_pkts" then Some "pkts"
  else if has_suffix last "_bps" || has_suffix last "rate" then Some "rate"
  else None

let unit_ops = [ "+"; "-"; "+."; "-."; "="; "<>"; "<"; ">"; "<="; ">=" ]

(* Statement-ish boundaries for the conversion-marker window. *)
let unit_boundary = function
  | Keyword
      ( "let" | "in" | "then" | "else" | "match" | "with" | "fun" | "function"
      | "begin" | "end" | "do" | "done" | "if" | "while" | "for" ) ->
    true
  | Punct ';' -> true
  | Op "->" -> true
  | _ -> false

let conversion_literals =
  [
    "1000"; "1_000"; "1000000"; "1_000_000"; "1000000000"; "1_000_000_000";
    "1e3"; "1e6"; "1e9"; "1e-3"; "1e-6"; "1e-9";
  ]

let is_conversion_marker (k : kind) =
  match k with
  | Ident name ->
    let last = last_component name in
    has_prefix name "Time."
    || has_prefix name "Units."
    || String.length name > 5
       && (let rec contains i =
             i + 6 <= String.length name
             && (String.sub name i 6 = ".Time." || contains (i + 1))
           in
           contains 0)
    || has_prefix last "to_"
    || has_prefix last "of_"
  | Num lit ->
    List.mem lit conversion_literals
    || String.contains lit 'e' && String.length lit > 1 && Lexer.is_digit lit.[0]
  | _ -> false

let check_unit_suffix rep ~path ~cat items =
  if cat = Lib then
    List.iter
      (fun (it : item) ->
        let toks = it.toks in
        let n = Array.length toks in
        Array.iteri
          (fun i (tok : token) ->
            match tok.kind with
            | Op op when List.mem op unit_ops ->
              let prev = if i > 0 then Some toks.(i - 1).kind else None in
              let next = if i + 1 < n then Some toks.(i + 1).kind else None in
              let unit_of = function
                | Some (Ident name) -> unit_of_ident name
                | _ -> None
              in
              (match (unit_of prev, unit_of next) with
              | Some u1, Some u2 when u1 <> u2 ->
                (* look for an explicit conversion in the enclosing
                   expression window *)
                let has_conv = ref false in
                let j = ref (i - 1) in
                let steps = ref 0 in
                while
                  !j >= 0 && !steps < 60
                  && not (unit_boundary toks.(!j).kind)
                do
                  if is_conversion_marker toks.(!j).kind then has_conv := true;
                  decr j;
                  incr steps
                done;
                let j = ref (i + 1) in
                let steps = ref 0 in
                while
                  !j < n && !steps < 60
                  && not (unit_boundary toks.(!j).kind)
                do
                  if is_conversion_marker toks.(!j).kind then has_conv := true;
                  incr j;
                  incr steps
                done;
                if not !has_conv then
                  Report.add rep ~path ~line:tok.line ~rule:"unit-suffix"
                    ?decl:it.name
                    (Printf.sprintf
                       "'%s' joins a '%s'-unit value and a '%s'-unit value \
                        with no explicit conversion (Time.to_ns / Units.* / \
                        a power-of-10 literal) in the expression"
                       op u1 u2)
              | _ -> ())
            | _ -> ())
          toks)
      items

(* ------------------------------------------------------------------ *)
(* [hashtbl-order] — unspecified iteration order                        *)

let is_hashtbl_iteration name =
  let last = last_component name in
  (last = "iter" || last = "fold")
  &&
  (* "Hashtbl.iter", "Hashtbl.Make(...).iter" style paths; module-local
     hashtable instances cannot be recognized without type information *)
  match String.rindex_opt name '.' with
  | None -> false
  | Some i -> (
    let path = String.sub name 0 i in
    has_suffix path "Hashtbl" || has_prefix path "Hashtbl.")

let check_hashtbl_order rep ~path ~cat items =
  if cat = Lib then
    List.iter
      (fun (it : item) ->
        let toks = it.toks in
        let sorted_idiom =
          Array.exists
            (fun (tok : token) ->
              match tok.kind with
              | Ident name -> has_prefix (last_component name) "sort"
              | _ -> false)
            toks
        in
        Array.iter
          (fun (tok : token) ->
            match tok.kind with
            | Ident name when is_hashtbl_iteration name ->
              if not sorted_idiom then
                Report.add rep ~path ~line:tok.line ~rule:"hashtbl-order"
                  ?decl:it.name
                  (Printf.sprintf
                     "%s iterates in unspecified hash order; fold to a list \
                      and List.sort before anything order-sensitive \
                      (sorted-iteration idiom), or waive with a pragma if \
                      the order provably cannot reach output or digests"
                     name)
            | _ -> ())
          toks)
      items

(* ------------------------------------------------------------------ *)
(* Per-file driver                                                      *)

(* Rules whose pragma waivers must carry a justification. *)
let justified_waiver_rules = [ "mutable-global" ]

let lint_source rep ~path src =
  let cat = category_of path in
  Report.count_file rep;
  let lx = Lexer.lex ~path src in
  let items = Lexer.items lx in
  let before = rep.Report.findings in
  check_idents rep ~path ~cat lx.tokens;
  check_bare_compare rep ~path ~cat lx.tokens;
  check_poly_compare rep ~path ~cat lx.tokens;
  check_packet_release rep ~path ~cat lx.tokens;
  check_bare_sim rep ~path ~cat lx.tokens;
  check_poly_minmax rep ~path lx.tokens;
  if Filename.check_suffix path ".ml" then begin
    check_mutable_global rep ~path ~cat items;
    check_unit_suffix rep ~path ~cat items;
    check_hashtbl_order rep ~path ~cat items
  end;
  (* filter the fresh findings against waiver pragmas *)
  let rec fresh acc l =
    if l == before then acc else
      match l with
      | [] -> acc
      | f :: rest -> fresh (f :: acc) rest
  in
  let fresh_findings = fresh [] rep.Report.findings in
  let keep (f : Report.finding) =
    if List.mem f.Report.rule justified_waiver_rules then
      not
        (Lexer.waived_justified lx ~line:f.Report.line ~rule:f.Report.rule)
    else not (Lexer.waived lx ~line:f.Report.line ~rule:f.Report.rule)
  in
  rep.Report.findings <- List.filter keep fresh_findings @ before

let check_mli_presence rep files =
  List.iter
    (fun path ->
      if category_of path = Lib && Filename.check_suffix path ".ml" then begin
        let mli = path ^ "i" in
        if not (List.mem mli files) then
          Report.add rep ~path ~line:1 ~rule:"missing-mli"
            "lib/ module without an interface file"
      end)
    files

(* ------------------------------------------------------------------ *)
(* [unused-export] — whole tree                                         *)

(* A [val] in a lib/ interface, nested [module X : sig] included, that
   no .ml outside its own compilation unit mentions is surface without a
   caller. A reference is a path whose innermost module is the val's
   ([Xmp_net.Packet.src], [P.src] after [module P = Xmp_net.Packet] or
   [let module P = …]), or a bare name in the scope of an [open],
   [let open] or [M.( … )] of that module. Module names are compared
   both as written and through the file's aliases, and an [open] lasts
   to the end of the file: in doubt a token counts as a use, so a
   finding is never false, though a use can hide one. *)

type export = {
  e_mli : string;
  e_unit : string;  (** the path without extension: "lib/net/packet" *)
  e_module : string;  (** innermost module: "Packet", or "Histogram" *)
  e_name : string;
  e_line : int;
}

let is_upper s = s <> "" && Char.uppercase_ascii s.[0] = s.[0] && s.[0] <> '_'

let exports_of ~path (toks : token array) =
  let unit = Filename.remove_extension path in
  let top = String.capitalize_ascii (Filename.basename unit) in
  (* enclosing blocks, innermost first: [Some X] for [module X : sig] *)
  let stack = ref [] in
  let acc = ref [] in
  let kind i = if i >= 0 && i < Array.length toks then Some toks.(i).kind else None in
  Array.iteri
    (fun i (tok : token) ->
      match tok.kind with
      | Keyword ("sig" | "struct" | "object" | "begin") ->
        let name =
          match (kind (i - 3), kind (i - 2), kind (i - 1)) with
          | Some (Keyword "module"), Some (Ident m), Some (Op ":") -> Some m
          | _ -> None
        in
        stack := name :: !stack
      | Keyword "end" -> (
        match !stack with [] -> () | _ :: rest -> stack := rest)
      | Keyword "val" when List.for_all Option.is_some !stack -> (
        match kind (i + 1) with
        | Some (Ident name) ->
          let e_module =
            match !stack with Some m :: _ -> m | _ -> top
          in
          acc :=
            { e_mli = path; e_unit = unit; e_module; e_name = name;
              e_line = tok.line }
            :: !acc
        | _ -> ())
      | _ -> ())
    toks;
  List.rev !acc

(* [module A = P] and [let module A = P in]: A -> innermost of P. *)
let aliases_of (toks : token array) =
  let n = Array.length toks in
  let acc = ref [] in
  Array.iteri
    (fun i (tok : token) ->
      match tok.kind with
      | Keyword "module" when i + 3 < n -> (
        match (toks.(i + 1).kind, toks.(i + 2).kind, toks.(i + 3).kind) with
        | Ident a, Op "=", Ident p when not (String.contains a '.') ->
          acc := (a, last_component p) :: !acc
        | _ -> ())
      | _ -> ())
    toks;
  !acc

(* A module name as written plus every name its aliases lead to. *)
let module_names aliases m =
  let rec go seen m =
    if List.mem m seen then seen
    else
      let seen = m :: seen in
      List.fold_left
        (fun seen (a, p) -> if a = m then go seen p else seen)
        seen aliases
  in
  go [] m

(* Every (module, name) pair a .ml file's tokens may refer to. *)
let references (toks : token array) =
  let aliases = aliases_of toks in
  let refs = Hashtbl.create 256 in
  let add m v =
    List.iter (fun m -> Hashtbl.replace refs (m, v) ()) (module_names aliases m)
  in
  let n = Array.length toks in
  (* [open M] lasts to the end of the file; [M.( … )] to its bracket *)
  let opened = ref [] in
  let local = ref [] in
  let depth = ref 0 in
  Array.iteri
    (fun i (tok : token) ->
      match tok.kind with
      | Keyword ("open" | "include") ->
        let j = if i + 1 < n && toks.(i + 1).kind = Op "!" then i + 2 else i + 1 in
        if j < n then (
          match toks.(j).kind with
          | Ident p -> opened := last_component p :: !opened
          | _ -> ())
      | Punct ('(' | '[' | '{') ->
        incr depth;
        if i >= 2 && toks.(i - 1).kind = Op "." then (
          match toks.(i - 2).kind with
          | Ident p -> local := (!depth, last_component p) :: !local
          | _ -> ())
      | Punct (')' | ']' | '}') ->
        local := List.filter (fun (d, _) -> d < !depth) !local;
        if !depth > 0 then decr depth
      | Ident path ->
        let parts = String.split_on_char '.' path in
        List.iteri
          (fun k v ->
            if not (is_upper v) then
              if k = 0 then begin
                List.iter (fun m -> add m v) !opened;
                List.iter (fun (_, m) -> add m v) !local
              end
              else
                let m = List.nth parts (k - 1) in
                if is_upper m then add m v)
          parts
      | Keyword _ | Num _ | Op _ | Str | Punct _ -> ())
    toks;
  refs

let check_unused_exports rep sources =
  let lexed =
    List.map (fun (path, src) -> (path, Lexer.lex ~path src)) sources
  in
  let refs =
    List.filter_map
      (fun (path, lx) ->
        if Filename.check_suffix path ".ml" then
          Some (Filename.remove_extension path, references lx.tokens)
        else None)
      lexed
  in
  List.iter
    (fun (path, lx) ->
      if category_of path = Lib && Filename.check_suffix path ".mli" then
        List.iter
          (fun e ->
            let used =
              List.exists
                (fun (unit, r) ->
                  unit <> e.e_unit && Hashtbl.mem r (e.e_module, e.e_name))
                refs
            in
            if
              (not used)
              && not (Lexer.waived lx ~line:e.e_line ~rule:"unused-export")
            then
              Report.add rep ~path ~line:e.e_line ~rule:"unused-export"
                ~decl:e.e_name
                (Printf.sprintf
                   "%s.%s is exported but no .ml outside %s.ml uses it; \
                    drop it from the interface, and its code if the module \
                    does not need it"
                   e.e_module e.e_name e.e_unit))
          (exports_of ~path lx.tokens))
    lexed
