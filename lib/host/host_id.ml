type t = int

let of_int i =
  if i < 0 then invalid_arg "Host_id.of_int: negative id";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let hash = Fun.id
let pp ppf t = Format.fprintf ppf "host-%d" t

module Set = Set.Make (Int)
module Map = Map.Make (Int)

module Tbl = Int_tbl
