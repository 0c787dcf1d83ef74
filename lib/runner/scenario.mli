(** A first-class description of one experiment run.

    A scenario is a named, parameterized, seeded unit of work that prints
    its result to stdout (through the sanctioned [Render]/[Table] sinks).
    Because every simulation in this repository is deterministic — a
    contract xmplint and the invariant checker enforce — a scenario's
    output is a pure function of its name and key, which is what makes
    the content digest below safe to use as a cache key and as a
    golden-test fingerprint. *)

type t = {
  name : string;  (** unique id, e.g. ["fig7"] or ["ablations.beta"] *)
  descr : string;  (** one-line human description *)
  key : string;
      (** the canonical text of everything that affects the output: seeds,
          scales, topology and scheme parameters *)
  run : unit -> unit;  (** prints the result to stdout *)
}

val create : name:string -> ?descr:string -> key:string -> (unit -> unit) -> t

val digest : t -> string
(** Stable content digest (hex) over the scenario's name and key — the
    closure is not (and cannot be) hashed, so [key] must cover every
    input the run depends on. Changing the key or the name changes the
    digest. The digest is salted with a format version so cache layout
    changes invalidate old entries wholesale. *)
