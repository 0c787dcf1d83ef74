let pad ~left width s =
  let n = width - String.length s in
  if n <= 0 then s
  else if left then s ^ String.make n ' '
  else String.make n ' ' ^ s

let render ~header ~rows () =
  let n_cols =
    List.fold_left
      (fun acc row -> Stdlib.max acc (List.length row))
      (List.length header) rows
  in
  let normalize row =
    row @ List.init (n_cols - List.length row) (fun _ -> "")
  in
  let header = normalize header in
  let rows = List.map normalize rows in
  let widths = Array.make n_cols 0 in
  let account row =
    List.iteri
      (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell))
      row
  in
  account header;
  List.iter account rows;
  let line row =
    String.concat "  "
      (List.mapi (fun i cell -> pad ~left:(i = 0) widths.(i) cell) row)
  in
  let sep =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (line header :: sep :: List.map line rows) ^ "\n"

let print ~header ~rows () = print_string (render ~header ~rows ())

let fixed d x =
  if Float.is_nan x then "--" else Printf.sprintf "%.*f" d x
