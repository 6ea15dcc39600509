type end_cause = Released of Event.release_cause | Expired | Commit_sweep | Regrant | Server_crash
type resolution = Res_approved of float | Res_expired of float
type blocker = { b_holder : int; mutable resolution : resolution option }

type wait = {
  write : int;
  w_file : int;
  writer : int;
  began_at : float;
  blockers : blocker list;
  mutable committed_at : float option;
  mutable waited_s : float option;
  mutable by_expiry : bool;
}

let none = -1

(* One int key per (file, host) pair: host ids below 2^30 and file ids
   below 2^32 fit side by side in a non-negative 63-bit int. *)
let[@inline] pair file host =
  if host lsr 30 <> 0 || file lsr 32 <> 0 then
    invalid_arg
      (Printf.sprintf
         "Lease_state: lease on file %d by host %d: ids must lie in [0, 2^32) and [0, 2^30)" file
         host);
  (file lsl 30) lor host

(* Records of (file, host) pairs, one int [value] and one float [until]
   each, in flat arrays indexed by a slot.  [slot_of] finds a pair's slot,
   and the records of one chain id form a doubly linked chain from
   [first_of]: the server's leases chain by file, the clients' by host.
   [next] links a free slot to the next free one.  Writing a held record
   stores an int and a float; linking and unlinking move ints between the
   tables, the chains and the free chain, so none of it allocates once
   the arrays have grown. *)
type records = {
  slot_of : int Int_tbl.t;
  first_of : int Int_tbl.t;
  mutable key : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable value : int array;  (** a server lease's number, a client lease's version *)
  mutable until : float array;  (** on the granting or holding host's clock *)
  mutable free : int;
  mutable used : int;
}

let records () =
  {
    slot_of = Int_tbl.create 64;
    first_of = Int_tbl.create 64;
    key = [||];
    prev = [||];
    next = [||];
    value = [||];
    until = [||];
    free = none;
    used = 0;
  }

let[@inline] find r key = Int_tbl.find_or r.slot_of key none
let[@inline] first r chain = Int_tbl.find_or r.first_of chain none

let new_slot r =
  if r.free <> none then begin
    let slot = r.free in
    r.free <- r.next.(slot);
    slot
  end
  else begin
    let slot = r.used in
    if slot = Array.length r.key then begin
      let grow a fill =
        let a' = Array.make (Int.max 64 (2 * slot)) fill in
        Array.blit a 0 a' 0 slot;
        a'
      in
      r.key <- grow r.key none;
      r.prev <- grow r.prev none;
      r.next <- grow r.next none;
      r.value <- grow r.value none;
      r.until <- grow r.until 0.
    end;
    r.used <- slot + 1;
    slot
  end

(* A new record for [key] at the head of [chain]. *)
let link r ~chain key =
  let slot = new_slot r and head = first r chain in
  r.key.(slot) <- key;
  r.prev.(slot) <- none;
  r.next.(slot) <- head;
  if head <> none then r.prev.(head) <- slot;
  Int_tbl.replace r.first_of chain slot;
  Int_tbl.add r.slot_of key slot;
  slot

let unlink r ~chain slot =
  Int_tbl.remove r.slot_of r.key.(slot);
  let p = r.prev.(slot) and x = r.next.(slot) in
  if p <> none then r.next.(p) <- x
  else if x <> none then Int_tbl.replace r.first_of chain x
  else Int_tbl.remove r.first_of chain;
  if x <> none then r.prev.(x) <- p;
  r.next.(slot) <- r.free;
  r.free <- slot

(* Free [chain]'s records, from [slot] on. *)
let rec release r chain slot =
  if slot = none then Int_tbl.remove r.first_of chain
  else begin
    let next = r.next.(slot) in
    Int_tbl.remove r.slot_of r.key.(slot);
    r.next.(slot) <- r.free;
    r.free <- slot;
    release r chain next
  end

type t = {
  servers : int list;
  owner : int -> int;
  on_end : int -> end_cause -> float -> unit;
  server : records;  (** chained by file *)
  client : records;  (** chained by host *)
  cover : float Int_tbl.t;  (** file -> installed-coverage horizon, server-local *)
  committed : int Int_tbl.t;  (** file -> latest committed version *)
  waits : wait Int_tbl.t;  (** write id -> its open wait *)
  mutable started : int;  (** server leases started so far *)
}

let create ?(servers = [ 0 ]) ?(owner = fun _ -> 0) ?(on_end = fun _ _ _ -> ()) () =
  {
    servers;
    owner;
    on_end;
    server = records ();
    client = records ();
    cover = Int_tbl.create 8;
    committed = Int_tbl.create 16;
    waits = Int_tbl.create 16;
    started = 0;
  }

let[@inline] expiry_of = function Some e -> e | None -> infinity

let rec report_chain t cause at slot =
  if slot <> none then begin
    t.on_end t.server.value.(slot) cause at;
    report_chain t cause at t.server.next.(slot)
  end

let end_chain t cause at file =
  let head = first t.server file in
  report_chain t cause at head;
  release t.server file head

(* A grant renews the holder's live lease, or starts a new one, numbered
   in start order, that replaces any live lease it does not renew. *)
let[@inline] grant t at ~file ~holder ~expiry ~renewal =
  let r = t.server and key = pair file holder in
  let held = find r key in
  let slot = if held = none then link r ~chain:file key else held in
  if held = none || not renewal then begin
    if held <> none then t.on_end r.value.(slot) Regrant at;
    r.value.(slot) <- t.started;
    t.started <- t.started + 1
  end;
  r.until.(slot) <- expiry_of expiry

let[@inline] end_lease t at ~file ~holder cause =
  let slot = find t.server (pair file holder) in
  if slot <> none then begin
    t.on_end t.server.value.(slot) cause at;
    unlink t.server ~chain:file slot
  end

let[@inline] record_client t ~host ~file ~version ~expiry =
  let r = t.client and key = pair file host in
  let held = find r key in
  let slot = if held = none then link r ~chain:host key else held in
  r.value.(slot) <- version;
  r.until.(slot) <- expiry_of expiry

let resolve_rest at w =
  List.iter
    (fun b -> if Option.is_none b.resolution then b.resolution <- Some (Res_expired at))
    w.blockers

let close_wait t at w =
  resolve_rest at w;
  Int_tbl.remove t.waits w.write

(* [f] of the open wait of [write], if there is one. *)
let with_wait t write f = match Int_tbl.find t.waits write with w -> f w | exception Not_found -> ()

(* A crashed server loses its own lease table, coverage and waits: end the
   leases of the files it owns and leave the other servers' state intact. *)
let crash_server t at host =
  let mine f = t.owner f = host in
  Int_tbl.fold (fun f _ acc -> if mine f then f :: acc else acc) t.server.first_of []
  |> List.iter (end_chain t Server_crash at);
  Int_tbl.fold (fun f _ acc -> if mine f then f :: acc else acc) t.cover []
  |> List.iter (Int_tbl.remove t.cover);
  Int_tbl.fold (fun _ w acc -> if mine w.w_file then w :: acc else acc) t.waits []
  |> List.iter (close_wait t at)

let[@inline] feed t ({ at; ev } : Event.t) =
  match ev with
  | Event.Lease_grant { file; holder; server_expiry; renewal; _ } ->
    grant t at ~file ~holder ~expiry:server_expiry ~renewal
  (* constant causes, so reporting one allocates nothing *)
  | Event.Lease_release { file; holder; cause = Event.Approved } ->
    end_lease t at ~file ~holder (Released Event.Approved)
  | Event.Lease_release { file; holder; cause = Event.Writer_self } ->
    end_lease t at ~file ~holder (Released Event.Writer_self)
  (* A reap means the server genuinely forgot the record: the lease lapsed
     on the server clock, so it can no longer block a commit.  Client-side
     staleness does not depend on the server's table. *)
  | Event.Lease_expire { file; holder; _ } -> end_lease t at ~file ~holder Expired
  | Event.Installed_cover { file; until } ->
    let prev = Option.value (Int_tbl.find_opt t.cover file) ~default:neg_infinity in
    Int_tbl.replace t.cover file (Float.max prev until)
  | Event.Commit { write; file; version; waited_s; _ } -> (
    end_chain t Commit_sweep at file;
    Int_tbl.remove t.cover file;
    Int_tbl.replace t.committed file version;
    match write with
    | None -> ()
    | Some id ->
      with_wait t id (fun w ->
          w.committed_at <- Some at;
          w.waited_s <- Some waited_s;
          close_wait t at w))
  | Event.Wait_begin { write; file; writer; waiting; _ } ->
    Int_tbl.replace t.waits write
      {
        write;
        w_file = file;
        writer;
        began_at = at;
        blockers = List.map (fun h -> { b_holder = h; resolution = None }) waiting;
        committed_at = None;
        waited_s = None;
        by_expiry = false;
      }
  | Event.Approval_reply { write; holder; _ } ->
    with_wait t write (fun w ->
        List.iter
          (fun b ->
            if b.b_holder = holder && Option.is_none b.resolution then
              b.resolution <- Some (Res_approved at))
          w.blockers)
  | Event.Wait_expire { write; _ } ->
    with_wait t write (fun w ->
        w.by_expiry <- true;
        resolve_rest at w)
  | Event.Client_lease { host; file; version; expiry; _ } ->
    record_client t ~host ~file ~version ~expiry
  | Event.Cache_invalidate { host; file } ->
    let slot = find t.client (pair file host) in
    if slot <> none then unlink t.client ~chain:host slot
  | Event.Crash { host } ->
    if List.exists (Int.equal host) t.servers then crash_server t at host;
    release t.client host (first t.client host)
  | _ -> ()

let lease t ~file ~holder =
  let slot = find t.server (pair file holder) in
  if slot = none then none else t.server.value.(slot)

let rec outliving_from r ~except ~server_now ~slack slot acc =
  if slot = none then acc
  else begin
    let holder = r.key.(slot) land ((1 lsl 30) - 1) and e = r.until.(slot) in
    let acc = if holder <> except && e > server_now +. slack then (holder, e) :: acc else acc in
    outliving_from r ~except ~server_now ~slack r.next.(slot) acc
  end

let outliving t ~file ~except ~server_now ~slack =
  match outliving_from t.server ~except ~server_now ~slack (first t.server file) [] with
  | [] -> []
  | live -> List.sort (fun (a, _) (b, _) -> Int.compare a b) live

let cover t file = Int_tbl.find_opt t.cover file
let committed t file = Int_tbl.find_or t.committed file none
let client_lease t ~host ~file = find t.client (pair file host)
let client_version t slot = t.client.value.(slot)
let client_expiry t slot = t.client.until.(slot)
let wait t write = Int_tbl.find t.waits write
