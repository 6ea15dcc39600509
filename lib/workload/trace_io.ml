let print trace =
  let buffer = Buffer.create 4096 in
  for i = 0 to Trace.length trace - 1 do
    Printf.bprintf buffer "%d %d %s %d%s\n"
      (Simtime.Time.to_us (Trace.at trace i))
      (Trace.client trace i)
      (Op.kind_to_string (Trace.kind trace i))
      (Vstore.File_id.to_int (Trace.file trace i))
      (if Trace.temporary trace i then " T" else "")
  done;
  Buffer.contents buffer

(* Appends one non-blank, non-comment line's op; [Error] says why not. *)
let add_line b line =
  let fields = String.split_on_char ' ' line |> List.filter (( <> ) "") in
  match fields with
  | [ at; client; kind; file ] | [ at; client; kind; file; "T" ] -> (
    match int_of_string_opt at, int_of_string_opt client, kind, int_of_string_opt file with
    | Some at, Some client, ("R" | "W"), Some file when at >= 0 && client >= 0 && file >= 0 -> (
      try
        Ok
          (Trace.Builder.add b ~at:(Simtime.Time.of_us at) ~client
             ~kind:(if kind = "R" then Op.Read else Op.Write)
             ~file:(Vstore.File_id.of_int file) ~temporary:(List.length fields = 5))
      with Invalid_argument why -> Error why)
    | _ -> Error "expected `<us> <client> <R|W> <file> [T]` with non-negative integers")
  | _ -> Error "expected 4 or 5 fields"

(* Feeds the lines [next_line] returns, numbered from 1, into a builder. *)
let parse_lines next_line =
  let b = Trace.Builder.create () in
  let rec go lineno =
    match next_line () with
    | None -> Ok (Trace.Builder.finish b)
    | Some line -> (
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1)
      else
        match add_line b trimmed with
        | Ok () -> go (lineno + 1)
        | Error why -> Error (Printf.sprintf "line %d: %s" lineno why))
  in
  go 1

let parse text =
  let pos = ref 0 and len = String.length text in
  (* [String.split_on_char '\n'] without building the list *)
  parse_lines (fun () ->
      if !pos > len then None
      else begin
        let stop = Option.value (String.index_from_opt text !pos '\n') ~default:len in
        let line = String.sub text !pos (stop - !pos) in
        pos := stop + 1;
        Some line
      end)

let read ic = parse_lines (fun () -> In_channel.input_line ic)
