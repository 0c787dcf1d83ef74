module Table = Xmp_stats.Table
module Distribution = Xmp_stats.Distribution

(* This module (with Table) is the one sanctioned stdout sink in lib/ —
   xmplint's stdout-in-lib rule allowlists it, so every experiment prints
   through these helpers. *)

let printf fmt = Printf.printf fmt

let say line = print_endline line

let heading title =
  let bar = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" bar title bar

let subheading title = Printf.printf "\n--- %s ---\n" title

let series_table ~bucket_s ?(every = 1) series =
  match series with
  | [] -> ()
  | (_, first) :: _ ->
    let n = Array.length first in
    let rows = ref [] in
    let i = ref 0 in
    while !i < n do
      let time = float_of_int !i *. bucket_s in
      let row =
        Printf.sprintf "%.2f" time
        :: List.map
             (fun (_, arr) ->
               if !i < Array.length arr then Table.fixed 3 arr.(!i)
               else "")
             series
      in
      rows := row :: !rows;
      i := !i + every
    done;
    Table.print
      ~header:("t(s)" :: List.map fst series)
      ~rows:(List.rev !rows) ()

let cdf_probs = [ 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 0.99 ]

let cdf_table dists =
  let rows =
    List.map
      (fun p ->
        Printf.sprintf "%.2f" p
        :: List.map
             (fun (_, d) ->
               if Distribution.is_empty d then "--"
               else Table.fixed 3 (Distribution.percentile d (p *. 100.)))
             dists)
      cdf_probs
  in
  Table.print ~header:("CDF" :: List.map fst dists) ~rows ()

let five_number_table ~value_header dists =
  let rows =
    List.map
      (fun (name, d) ->
        if Distribution.is_empty d then [ name; "--"; "--"; "--"; "--"; "--"; "--" ]
        else begin
          let mn, p10, p50, p90, mx = Distribution.five_number d in
          [
            name;
            Table.fixed 3 mn;
            Table.fixed 3 p10;
            Table.fixed 3 p50;
            Table.fixed 3 p90;
            Table.fixed 3 mx;
            Table.fixed 3 (Distribution.mean d);
          ]
        end)
      dists
  in
  Table.print
    ~header:[ value_header; "min"; "p10"; "p50"; "p90"; "max"; "mean" ]
    ~rows ()
