type file_class = Installed | Shared | Private of int | Temporary of int

type t = {
  clients : int;
  installed : int;
  shared : int;
  private_per_client : int;
  temporary_per_client : int;
}

let create ~clients ~installed ~shared ~private_per_client ~temporary_per_client =
  if clients <= 0 then invalid_arg "Fileset.create: need at least one client";
  if installed <= 0 then invalid_arg "Fileset.create: need at least one installed file";
  if shared < 0 || private_per_client < 0 || temporary_per_client < 0 then
    invalid_arg "Fileset.create: negative file count";
  { clients; installed; shared; private_per_client; temporary_per_client }

let clients t = t.clients
let installed t = t.installed
let shared t = t.shared
let private_per_client t = t.private_per_client
let temporary_per_client t = t.temporary_per_client

(* The first id of each class range.  These and the id accessors below
   are inlined, because a generator picks a file through them on every
   op. *)
let[@inline] first_private t = t.clients * t.temporary_per_client
let[@inline] first_shared t = first_private t + (t.clients * t.private_per_client)
let[@inline] first_installed t = first_shared t + t.shared
let size t = first_installed t + t.installed

let[@inline] nth ~first ~count i =
  if i < 0 || i >= count then invalid_arg "Fileset: file index out of range";
  Vstore.File_id.of_int (first + i)

let[@inline] check_client t c =
  if c < 0 || c >= t.clients then invalid_arg "Fileset: client index out of range"

let[@inline] installed_id t i = nth ~first:(first_installed t) ~count:t.installed i
let[@inline] shared_id t i = nth ~first:(first_shared t) ~count:t.shared i

let[@inline] private_id t ~client i =
  check_client t client;
  let n = t.private_per_client in
  nth ~first:(first_private t + (client * n)) ~count:n i

let[@inline] temporary_id t ~client i =
  check_client t client;
  let n = t.temporary_per_client in
  nth ~first:(client * n) ~count:n i

let class_of t file =
  let id = Vstore.File_id.to_int file in
  if id < first_private t then Temporary (id / t.temporary_per_client)
  else if id < first_shared t then Private ((id - first_private t) / t.private_per_client)
  else if id < first_installed t then Shared
  else if id < size t then Installed
  else raise Not_found
