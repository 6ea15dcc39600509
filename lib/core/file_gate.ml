module File_id = Vstore.File_id

type ('h, 'w) t = {
  holders : 'h File_id.Tbl.t;
  mutable n_held : int;  (** [holders]' length, one load nearer: see [held] *)
  mutable queues : 'w Queue.t File_id.Tbl.t option;
      (** [None] while no file has waiters; a drained queue is removed *)
}

let create () = { holders = File_id.Tbl.create 8; n_held = 0; queues = None }

(* Inlined: the lease server asks it for every line it grants, and the
   client for every read. *)
let[@inline] held t file = t.n_held > 0 && File_id.Tbl.mem t.holders file

let holder t file = File_id.Tbl.find t.holders file

let hold t file h =
  File_id.Tbl.replace t.holders file h;
  t.n_held <- File_id.Tbl.length t.holders

let wait t file w =
  let queues =
    match t.queues with
    | Some queues -> queues
    | None ->
      let queues = File_id.Tbl.create 8 in
      t.queues <- Some queues;
      queues
  in
  match File_id.Tbl.find queues file with
  | q -> Queue.push w q
  | exception Not_found ->
    let q = Queue.create () in
    Queue.push w q;
    File_id.Tbl.add queues file q

let rec serve t file serve_one c =
  match t.queues with
  | Some queues when not (held t file) -> (
    match File_id.Tbl.find queues file with
    | exception Not_found -> ()
    | q ->
      let w = Queue.pop q in
      if Queue.is_empty q then begin
        File_id.Tbl.remove queues file;
        if File_id.Tbl.length queues = 0 then t.queues <- None
      end;
      serve_one c file w;
      serve t file serve_one c)
  | Some _ | None -> ()

let free t file serve_one c =
  File_id.Tbl.remove t.holders file;
  t.n_held <- File_id.Tbl.length t.holders;
  serve t file serve_one c

let waits t file f =
  match t.queues with
  | Some queues -> (
    match File_id.Tbl.find queues file with
    | q -> Queue.fold (fun found w -> found || f w) false q
    | exception Not_found -> false)
  | None -> false

let iter f t = File_id.Tbl.iter (fun _ h -> f h) t.holders

let reset t =
  File_id.Tbl.reset t.holders;
  t.n_held <- 0;
  t.queues <- None

let held_files t = t.n_held

let waiters t =
  match t.queues with
  | Some queues -> File_id.Tbl.fold (fun _ q n -> n + Queue.length q) queues 0
  | None -> 0

let waiting_files t = match t.queues with Some queues -> File_id.Tbl.length queues | None -> 0
