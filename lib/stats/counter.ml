type t = { name : string; mutable value : int }

let create name = { name; value = 0 }

let incr t = t.value <- t.value + 1

let add t n =
  if n < 0 then invalid_arg "Counter.add: counters are monotonic";
  t.value <- t.value + n

let value t = t.value
let name t = t.name

module Registry = struct
  type nonrec t = (string, t) Hashtbl.t

  let create () = Hashtbl.create 32

  let counter registry name =
    match Hashtbl.find_opt registry name with
    | Some counter -> counter
    | None ->
      let counter = { name; value = 0 } in
      Hashtbl.add registry name counter;
      counter

  let counters registry =
    Hashtbl.fold (fun _ counter acc -> counter :: acc) registry []
    |> List.sort (fun a b -> String.compare a.name b.name)

  let to_list registry = List.map (fun c -> (c.name, c.value)) (counters registry)

  let find registry name =
    match Hashtbl.find_opt registry name with
    | Some counter -> counter.value
    | None -> 0

  let reset registry = Hashtbl.iter (fun _ counter -> counter.value <- 0) registry

  let pp ppf registry =
    let rows = to_list registry in
    Format.pp_print_list
      ~pp_sep:Format.pp_print_cut
      (fun ppf (name, value) -> Format.fprintf ppf "%-40s %d" name value)
      ppf rows
end
