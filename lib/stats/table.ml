let rstrip line =
  let n = ref (String.length line) in
  while !n > 0 && line.[!n - 1] = ' ' do
    decr n
  done;
  String.sub line 0 !n

let render ~header ~rows =
  let columns =
    List.fold_left (fun acc row -> Int.max acc (List.length row)) (List.length header) rows
  in
  let pad row = row @ List.init (columns - List.length row) (fun _ -> "") in
  let all = List.map pad (header :: rows) in
  let widths = Array.make columns 0 in
  let record_widths row =
    List.iteri (fun i cell -> widths.(i) <- Int.max widths.(i) (String.length cell)) row
  in
  List.iter record_widths all;
  let format_row row =
    let cells = List.mapi (fun i cell -> cell ^ String.make (widths.(i) - String.length cell) ' ') row in
    rstrip (String.concat "  " cells)
  in
  let rule =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  match all with
  | header :: rows -> String.concat "\n" (format_row header :: rule :: List.map format_row rows)
  | [] -> ""

let of_series ~x_label ~x_format ~y_format series_list =
  let xs =
    List.concat_map (fun s -> List.map fst (Series.points s)) series_list
    |> List.sort_uniq compare
  in
  let header = x_label :: List.map Series.label series_list in
  let rows =
    List.map
      (fun x ->
        x_format x
        :: List.map
             (fun s -> match Series.y_at s ~x with Some y -> y_format y | None -> "")
             series_list)
      xs
  in
  render ~header ~rows
