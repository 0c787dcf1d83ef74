type t = {
  name : string;
  descr : string;
  params : (string * string) list;
  run : unit -> unit;
}

let create ~name ?(descr = "") ?(params = []) run =
  { name; descr; params; run }

(* Bump whenever the cache entry layout or the digest input changes; a
   bump orphans every existing cache entry rather than misreading it. *)
let format_version = "2"

let canonical_params t =
  List.sort_uniq
    (fun (a, va) (b, vb) ->
      match String.compare a b with
      | 0 -> String.compare va vb
      | c -> c)
    t.params

let digest t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "xmp-scenario/";
  Buffer.add_string buf format_version;
  Buffer.add_char buf '\n';
  Buffer.add_string buf t.name;
  Buffer.add_char buf '\n';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf v;
      Buffer.add_char buf '\n')
    (canonical_params t);
  Digest.to_hex (Digest.string (Buffer.contents buf))
