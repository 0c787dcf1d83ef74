type t = {
  name : string;
  descr : string;
  key : string;
  run : unit -> unit;
}

let create ~name ?(descr = "") ~key run = { name; descr; key; run }

(* Bump whenever the cache entry layout or the digest input changes; a
   bump orphans every existing cache entry rather than misreading it. *)
let format_version = "3"

let digest t =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" [ "xmp-scenario/" ^ format_version; t.name; t.key ]))
