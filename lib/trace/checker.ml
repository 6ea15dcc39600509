type violation = { at : float; invariant : string; detail : string }

type report = {
  events : int;
  checked_hits : int;
  checked_commits : int;
  violations : violation list;
}

let epsilon_s = 1e-5

(* One host's recorded leases, by file.  A file keeps its slot once it has
   one: a renewal writes a version and an expiry into flat arrays and
   allocates nothing, and an invalidation marks the slot [absent] instead
   of freeing it.  An expiry of [infinity] is a lease that never expires
   ([None] in the event). *)
type client_view = {
  slots : int Int_tbl.t;  (** file -> slot *)
  mutable versions : int array;  (** by slot; [absent] once invalidated *)
  mutable expiries : float array;  (** by slot, client-local *)
}

let absent = -1

(* The server-side leases: one record per (file, holder) pair the server
   holds, in flat arrays indexed by a record slot.  [record_of] finds a
   pair's slot, and each file's records form a doubly linked chain from
   [first_of], so a commit or a crash walks the file's held records and
   nothing else.  A grant on a held pair writes one float into [until]; a
   new grant, a release, a reap or a commit moves ints between the tables,
   the chains and the free chain.  None of them allocates or boxes once the
   arrays have grown, and a file's records cost no block of their own.  An
   expiry of [infinity] is a lease that never expires. *)
type server_records = {
  record_of : int Int_tbl.t;  (** [pair file holder] -> slot *)
  first_of : int Int_tbl.t;  (** file -> the first slot of its chain *)
  mutable holder : int array;  (** by slot *)
  mutable prev : int array;  (** by slot: the previous slot of the file's chain, or [none] *)
  mutable next : int array;
      (** by slot: the next slot of the file's chain, or [none]; for a free
          slot, the next free one *)
  mutable until : float array;  (** by slot: the server-local expiry *)
  mutable free : int;  (** the first free slot, or [none] *)
  mutable used : int;  (** slots ever handed out *)
}

let none = -1

(* One int key per pair: holder ids below 2^30 and file ids below 2^32 fit
   side by side in a non-negative 63-bit int. *)
let pair file holder =
  if holder lsr 30 <> 0 || file lsr 32 <> 0 then
    invalid_arg
      (Printf.sprintf "Checker: lease on file %d by host %d: ids must lie in [0, 2^32) and [0, 2^30)"
         file holder);
  (file lsl 30) lor holder

type t = {
  servers : int list;
  owner : int -> int;
  mutable rev_violations : violation list;
  mutable n_events : int;
  mutable hits : int;
  mutable commits : int;
  (* client host -> its recorded leases *)
  client_leases : client_view Int_tbl.t;
  server_leases : server_records;
  (* file -> installed-coverage horizon, server-local *)
  cover : float Int_tbl.t;
  (* file -> latest committed version *)
  committed : int Int_tbl.t;
}

let create ?(server = 0) ?servers ?owner () =
  {
    servers = (match servers with Some hosts -> hosts | None -> [ server ]);
    (* file -> owning server host; the default (every file on [server])
       reproduces the single-server sweep-everything semantics. *)
    owner = (match owner with Some f -> f | None -> fun _ -> server);
    rev_violations = [];
    n_events = 0;
    hits = 0;
    commits = 0;
    client_leases = Int_tbl.create 64;
    server_leases =
      {
        record_of = Int_tbl.create 64;
        first_of = Int_tbl.create 64;
        holder = [||];
        prev = [||];
        next = [||];
        until = [||];
        free = none;
        used = 0;
      };
    cover = Int_tbl.create 8;
    committed = Int_tbl.create 16;
  }

let flag t at invariant detail =
  t.rev_violations <- { at; invariant; detail } :: t.rev_violations

let expiry_of = function Some e -> e | None -> infinity

let client_view t host =
  match Int_tbl.find t.client_leases host with
  | view -> view
  | exception Not_found ->
    let view = { slots = Int_tbl.create 8; versions = [||]; expiries = [||] } in
    Int_tbl.add t.client_leases host view;
    view

let record_client_lease t ~host ~file ~version ~expiry =
  let view = client_view t host in
  let slot =
    match Int_tbl.find view.slots file with
    | slot -> slot
    | exception Not_found ->
      let slot = Int_tbl.length view.slots in
      if slot = Array.length view.versions then begin
        let cap = Int.max 8 (2 * slot) in
        let versions = Array.make cap absent and expiries = Array.make cap 0. in
        Array.blit view.versions 0 versions 0 slot;
        Array.blit view.expiries 0 expiries 0 slot;
        view.versions <- versions;
        view.expiries <- expiries
      end;
      Int_tbl.add view.slots file slot;
      slot
  in
  view.versions.(slot) <- version;
  view.expiries.(slot) <- expiry_of expiry

let invalidate t ~host ~file =
  match Int_tbl.find t.client_leases host with
  | exception Not_found -> ()
  | view -> (
    match Int_tbl.find view.slots file with
    | slot -> view.versions.(slot) <- absent
    | exception Not_found -> ())

let new_slot s =
  if s.free <> none then begin
    let slot = s.free in
    s.free <- s.next.(slot);
    slot
  end
  else begin
    let slot = s.used in
    if slot = Array.length s.holder then begin
      let cap = Int.max 64 (2 * slot) in
      let grow a fill =
        let a' = Array.make cap fill in
        Array.blit a 0 a' 0 slot;
        a'
      in
      s.holder <- grow s.holder none;
      s.prev <- grow s.prev none;
      s.next <- grow s.next none;
      s.until <- grow s.until 0.
    end;
    s.used <- slot + 1;
    slot
  end

let record_server_lease t ~file ~holder ~expiry =
  let s = t.server_leases in
  let key = pair file holder in
  let slot =
    match Int_tbl.find s.record_of key with
    | slot -> slot
    | exception Not_found ->
      let slot = new_slot s in
      let first = match Int_tbl.find s.first_of file with first -> first | exception Not_found -> none in
      s.holder.(slot) <- holder;
      s.prev.(slot) <- none;
      s.next.(slot) <- first;
      if first <> none then s.prev.(first) <- slot;
      Int_tbl.replace s.first_of file slot;
      Int_tbl.add s.record_of key slot;
      slot
  in
  s.until.(slot) <- expiry_of expiry

let release_server_lease t ~file ~holder =
  let s = t.server_leases in
  let key = pair file holder in
  match Int_tbl.find s.record_of key with
  | exception Not_found -> ()
  | slot ->
    Int_tbl.remove s.record_of key;
    let p = s.prev.(slot) and x = s.next.(slot) in
    if p <> none then s.next.(p) <- x
    else if x <> none then Int_tbl.replace s.first_of file x
    else Int_tbl.remove s.first_of file;
    if x <> none then s.prev.(x) <- p;
    s.next.(slot) <- s.free;
    s.free <- slot

(* Free the chain of [file], which starts at [first]. *)
let release_file s file first =
  let slot = ref first in
  while !slot <> none do
    let i = !slot in
    Int_tbl.remove s.record_of (pair file s.holder.(i));
    slot := s.next.(i);
    s.next.(i) <- s.free;
    s.free <- i
  done;
  Int_tbl.remove s.first_of file

let flag_unbacked t at ~host ~file =
  flag t at "local-read-validity"
    (Printf.sprintf "host %d hit file %d with no recorded lease" host file)

let check_hit t at ~host ~file ~version ~local_now =
  t.hits <- t.hits + 1;
  (match Int_tbl.find t.client_leases host with
  | exception Not_found -> flag_unbacked t at ~host ~file
  | view -> (
    match Int_tbl.find view.slots file with
    | exception Not_found -> flag_unbacked t at ~host ~file
    | slot ->
      let recorded = view.versions.(slot) and e = view.expiries.(slot) in
      if recorded = absent then flag_unbacked t at ~host ~file
      else if recorded <> version then
        flag t at "local-read-validity"
          (Printf.sprintf "host %d hit file %d at v%d but lease recorded v%d" host file version
             recorded)
      else if local_now >= e then
        flag t at "local-read-validity"
          (Printf.sprintf "host %d hit file %d after local expiry (local clock %.6f >= expiry %.6f)"
             host file local_now e)));
  match Int_tbl.find t.committed file with
  | v when version < v ->
    flag t at "stale-hit"
      (Printf.sprintf "host %d read file %d at v%d but v%d is committed" host file version v)
  | _ | (exception Not_found) -> ()

(* [acc] and the (holder, expiry) records of the chain from [slot] that a
   commit by [writer] at [server_now] overlaps. *)
let rec overlapped s ~writer ~server_now slot acc =
  if slot = none then acc
  else begin
    let holder = s.holder.(slot) and e = s.until.(slot) in
    let acc = if holder <> writer && e > server_now +. epsilon_s then (holder, e) :: acc else acc in
    overlapped s ~writer ~server_now s.next.(slot) acc
  end

(* Every lease a non-writer holds on the file must have expired at the
   server clock, flagged in ascending holder order; the commit then
   releases every lease on the file and resets its coverage.  A clean
   commit allocates nothing. *)
let check_commit t at ~file ~writer ~version ~server_now =
  t.commits <- t.commits + 1;
  let s = t.server_leases in
  (match Int_tbl.find s.first_of file with
  | exception Not_found -> ()
  | first ->
    (match overlapped s ~writer ~server_now first [] with
    | [] -> ()
    | records ->
      List.sort (fun (a, _) (b, _) -> Int.compare a b) records
      |> List.iter (fun (holder, e) ->
             if e = infinity then
               flag t at "commit-vs-lease"
                 (Printf.sprintf "commit of file %d v%d with infinite lease held by %d" file
                    version holder)
             else
               flag t at "commit-vs-lease"
                 (Printf.sprintf
                    "commit of file %d v%d while host %d's lease runs to %.6f (server clock %.6f)"
                    file version holder e server_now)));
    release_file s file first);
  (match Int_tbl.find_opt t.cover file with
  | Some until when until > server_now +. epsilon_s ->
    flag t at "commit-vs-lease"
      (Printf.sprintf "commit of file %d v%d inside installed coverage to %.6f (server clock %.6f)"
         file version until server_now)
  | _ -> ());
  Int_tbl.remove t.cover file;
  Int_tbl.replace t.committed file version

(* A crashed server loses only its own lease table and coverage: release
   the leases of the files it owns, leave the other shards' state intact. *)
let sweep_server t host =
  let s = t.server_leases in
  Int_tbl.fold (fun f first acc -> if t.owner f = host then (f, first) :: acc else acc) s.first_of []
  |> List.iter (fun (f, first) -> release_file s f first);
  let owned = Int_tbl.fold (fun f _ acc -> if t.owner f = host then f :: acc else acc) t.cover [] in
  List.iter (Int_tbl.remove t.cover) owned

let feed t ({ at; ev } : Event.t) =
  t.n_events <- t.n_events + 1;
  match ev with
  | Event.Client_lease { host; file; version; expiry; _ } ->
    record_client_lease t ~host ~file ~version ~expiry
  | Event.Cache_invalidate { host; file } -> invalidate t ~host ~file
  | Event.Cache_hit { host; file; version; local_now } ->
    check_hit t at ~host ~file ~version ~local_now
  | Event.Lease_grant { file; holder; server_expiry; _ } ->
    record_server_lease t ~file ~holder ~expiry:server_expiry
  | Event.Lease_release { file; holder; _ } -> release_server_lease t ~file ~holder
  (* A reap means the server genuinely forgot the record: the lease
     expired on the server clock, so it can no longer block a commit.
     Client-side staleness is still caught by local-read-validity and
     stale-hit, which do not depend on the server's table. *)
  | Event.Lease_expire { file; holder; _ } -> release_server_lease t ~file ~holder
  | Event.Installed_cover { file; until } ->
    let prev = match Int_tbl.find_opt t.cover file with Some u -> u | None -> neg_infinity in
    Int_tbl.replace t.cover file (Float.max prev until)
  | Event.Commit { file; writer; version; server_now; _ } ->
    check_commit t at ~file ~writer ~version ~server_now
  | Event.Crash { host } ->
    if List.exists (fun (s : int) -> s = host) t.servers then sweep_server t host;
    Int_tbl.remove t.client_leases host
  | _ -> ()

let report t =
  {
    events = t.n_events;
    checked_hits = t.hits;
    checked_commits = t.commits;
    violations = List.rev t.rev_violations;
  }

let sink t = { Sink.enabled = true; push = feed t; flush = ignore }

let check ?server ?servers ?owner events =
  let t = create ?server ?servers ?owner () in
  List.iter (feed t) events;
  report t

let ok r = match r.violations with [] -> true | _ :: _ -> false

let pp_violation ppf v =
  Format.fprintf ppf "@[<h>[%12.6f] %-20s %s@]" v.at v.invariant v.detail

let pp_report ppf r =
  Format.fprintf ppf "@[<v>checked %d events (%d cache hits, %d commits): " r.events
    r.checked_hits r.checked_commits;
  (match r.violations with
  | [] -> Format.fprintf ppf "OK, no violations"
  | vs ->
    Format.fprintf ppf "%d violation%s@,%a" (List.length vs)
      (if List.length vs = 1 then "" else "s")
      (Format.pp_print_list pp_violation) vs);
  Format.fprintf ppf "@]"
