(** A first-class description of one experiment run.

    A scenario is a named, parameterized, seeded unit of work that prints
    its result to stdout (through the sanctioned [Render]/[Table] sinks).
    Because every simulation in this repository is deterministic — a
    contract xmplint and the invariant checker enforce — a scenario's
    output is a pure function of its name and parameters, which is what
    makes the content digest below safe to use as a cache key and as a
    golden-test fingerprint. *)

type t = {
  name : string;  (** unique id, e.g. ["fig7"] or ["ablations.beta"] *)
  descr : string;  (** one-line human description *)
  params : (string * string) list;
      (** everything that affects the output: seeds, scales, topology and
          scheme parameters. Order is irrelevant (the digest sorts). *)
  run : unit -> unit;  (** prints the result to stdout *)
}

val create :
  name:string ->
  ?descr:string ->
  ?params:(string * string) list ->
  (unit -> unit) ->
  t

val digest : t -> string
(** Stable content digest (hex) over the scenario's name and canonicalized
    parameter list — the closure is not (and cannot be) hashed, so [params]
    must cover every input the run depends on. Changing any parameter value
    changes the digest; reordering parameters does not. The digest is
    salted with a format version so cache layout changes invalidate old
    entries wholesale. *)
