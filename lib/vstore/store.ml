open Simtime

(* Per-file history, newest first: each commit's version and instant, then
   the older ones.  Version [initial] is implicit at [Time.zero].  The
   newest commit sits inline in the history, so [current] is two loads past
   the directory and a commit allocates one 4-word block. *)
type history =
  | Initial
  | Commit of { version : Version.t; at : Time.t; older : history }

(* Histories live in fixed-size chunks of [chunk_size] files, reached
   through a directory indexed by [File_id.to_int file lsr chunk_bits]:
   the grant path reads [current] on every line, so a read is a directory
   load and a chunk load, with no emptiness test.  Every directory entry
   no commit has touched is [empty_chunk], one chunk shared by every store
   and never written, so memory follows the touched ids and not the
   largest one; a commit replaces it with a fresh chunk first.  256 files
   a chunk: a 4096-file chunk is allocated straight on the major heap,
   which the small worlds of a campaign pay for in time. *)
let chunk_bits = 8
let chunk_size = 1 lsl chunk_bits
let empty_chunk : history array = Array.make chunk_size Initial

type t = {
  mutable chunks : history array array;  (** [empty_chunk] where no file was committed *)
  mutable commits : int;
}

let create () = { chunks = [||]; commits = 0 }

(* The chunk of file index [idx], ready to write: the directory grows to
   cover it (at least doubling, so appends stay amortized), and an
   [empty_chunk] entry gets a chunk of its own. *)
let writable_chunk t idx =
  let c = idx lsr chunk_bits in
  let cap = Array.length t.chunks in
  if c >= cap then begin
    let chunks = Array.make (Int.max (c + 1) (2 * cap)) empty_chunk in
    Array.blit t.chunks 0 chunks 0 cap;
    t.chunks <- chunks
  end;
  let chunk = Array.unsafe_get t.chunks c in
  if chunk != empty_chunk then chunk
  else begin
    let chunk = Array.make chunk_size Initial in
    t.chunks.(c) <- chunk;
    chunk
  end

(* Read-only history lookup: never-written files (and never-seen ids) read
   as the empty history — no allocation, no chunk creation. *)
let history_ro t file =
  let idx = File_id.to_int file in
  let c = idx lsr chunk_bits in
  if c < Array.length t.chunks then
    Array.unsafe_get (Array.unsafe_get t.chunks c) (idx land (chunk_size - 1))
  else Initial

let current t file =
  match history_ro t file with
  | Commit { version; _ } -> version
  | Initial -> Version.initial

let commit t file ~at =
  let idx = File_id.to_int file in
  let chunk = writable_chunk t idx and i = idx land (chunk_size - 1) in
  let h = Array.unsafe_get chunk i in
  let version =
    match h with
    | Commit { version; at = last; _ } ->
      if Time.(at < last) then
        invalid_arg "Store.commit: commit instants must be non-decreasing";
      Version.next version
    | Initial -> Version.next Version.initial
  in
  Array.unsafe_set chunk i (Commit { version; at; older = h });
  t.commits <- t.commits + 1;
  version

let commits t = t.commits

let current_at t file at =
  let rec find = function
    | Initial -> Version.initial
    | Commit { version; at = committed; older } ->
      if Time.(committed <= at) then version else find older
  in
  find (history_ro t file)

(* The validity interval of [version] is [its commit instant, the next
   version's commit instant).  A read is atomic if that interval intersects
   the read's [start, finish] window. *)
let validity_interval t file version =
  let rec find next = function
    | Initial ->
      if Version.equal version Version.initial then Some (Time.zero, next) else None
    | Commit { version = v; at = committed; older } ->
      if Version.equal v version then Some (committed, next) else find (Some committed) older
  in
  find None (history_ro t file)

(* Whether [version]'s validity interval intersects [start, finish], from
   the newest commit down; [next], the instant the commit after the one
   at hand superseded it, means something only once [bounded].  Called on
   every completed read, so it walks the history without the closure and
   options [validity_interval] allocates. *)
let rec current_during version ~start ~finish ~bounded ~next = function
  | Initial ->
    Version.equal version Version.initial
    && Time.(zero <= finish)
    && ((not bounded) || Time.(start < next))
  | Commit { version = v; at = committed; older } ->
    if Version.equal v version then
      Time.(committed <= finish) && ((not bounded) || Time.(start < next))
    else current_during version ~start ~finish ~bounded:true ~next:committed older

let was_current_during t file version ~start ~finish =
  if Time.(finish < start) then invalid_arg "Store.was_current_during: empty window";
  current_during version ~start ~finish ~bounded:false ~next:Time.zero (history_ro t file)

let staleness_at t file version ~at =
  match validity_interval t file version with
  | None -> Some (Time.diff at Time.zero) (* unknown version: maximally stale *)
  | Some (_, None) -> None
  | Some (_, Some superseded) ->
    if Time.(superseded <= at) then Some (Time.diff at superseded) else None
