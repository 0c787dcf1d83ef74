(* The sink a simulation owns: a registry plus a flight recorder, with an
   [enabled] flag instrumentation sites test first. [null] is the shared
   disabled sink; emitting through it is a single load-and-branch, so
   un-instrumented runs pay essentially nothing. *)

type t = {
  enabled : bool;
  registry : Registry.t;
  recorder : Recorder.t;
}

let null =
  { enabled = false; registry = Registry.create (); recorder = Recorder.create ~capacity:1 }

let create ?(recorder_capacity = 65536) () =
  {
    enabled = true;
    registry = Registry.create ();
    recorder = Recorder.create ~capacity:recorder_capacity;
  }

let active t = t.enabled
let registry t = t.registry
let recorder t = t.recorder

let event t ~time_ns ev =
  if t.enabled then Recorder.record t.recorder ~time_ns ev

type scope = {
  sink : t;
  flow : int;
  subflow : int;
}

let unscoped = { sink = null; flow = 0; subflow = 0 }
(* a disabled sink never reads the identity, so every subflow shares one *)
let scope t ~flow ~subflow =
  if active t then { sink = t; flow; subflow } else unscoped
