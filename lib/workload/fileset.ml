type file_class = Installed | Shared | Private of int | Temporary of int

type t = {
  clients : int;
  installed : Vstore.File_id.t array;
  shared : Vstore.File_id.t array;
  private_ : Vstore.File_id.t array array;
  temporary : Vstore.File_id.t array array;
  classes : file_class Vstore.File_id.Tbl.t Lazy.t;
}

(* Built on first use: only Table 2 and the tests ask for a file's class,
   and at 10 000 clients filling the table cost about half of generating
   a V trace. *)
let index ~installed ~shared ~private_ ~temporary =
  let classes = Vstore.File_id.Tbl.create 256 in
  let add cls = Array.iter (fun id -> Vstore.File_id.Tbl.replace classes id cls) in
  Array.iteri (fun c ids -> add (Temporary c) ids) temporary;
  Array.iteri (fun c ids -> add (Private c) ids) private_;
  add Shared shared;
  add Installed installed;
  classes

let create ~fresh_id ~clients ~installed ~shared ~private_per_client ~temporary_per_client =
  if clients <= 0 then invalid_arg "Fileset.create: need at least one client";
  if installed <= 0 then invalid_arg "Fileset.create: need at least one installed file";
  if shared < 0 || private_per_client < 0 || temporary_per_client < 0 then
    invalid_arg "Fileset.create: negative file count";
  let allocate n = Array.init n (fun _ -> fresh_id ()) in
  (* Every seeded trace depends on this allocation order: temporary ids
     first, then private, shared and installed. *)
  let temporary = Array.init clients (fun _ -> allocate temporary_per_client) in
  let private_ = Array.init clients (fun _ -> allocate private_per_client) in
  let shared = allocate shared in
  let installed = allocate installed in
  {
    clients;
    installed;
    shared;
    private_;
    temporary;
    classes = lazy (index ~installed ~shared ~private_ ~temporary);
  }

let clients t = t.clients
let installed t = t.installed
let shared t = t.shared

let check_client t c =
  if c < 0 || c >= t.clients then invalid_arg "Fileset: client index out of range"

let private_of t c =
  check_client t c;
  t.private_.(c)

let temporary_of t c =
  check_client t c;
  t.temporary.(c)

let class_of t file = Vstore.File_id.Tbl.find (Lazy.force t.classes) file

let ids t =
  Array.concat (t.installed :: t.shared :: Array.to_list (Array.append t.private_ t.temporary))

let all t = List.sort Vstore.File_id.compare (Array.to_list (ids t))
let size t = Array.length (ids t)
