open Simtime

(* Per-file history, newest first: each commit's version and instant, then
   the older ones.  Version [initial] is implicit at [Time.zero].  The
   newest commit sits inline in the array element, so [current] is one
   load past the array and a commit allocates one 4-word block.  File ids
   are dense small ints, so histories live in a growable array indexed by
   [File_id.to_int] — the grant path reads [current] on every line. *)
type history =
  | Initial
  | Commit of { version : Version.t; at : Time.t; older : history }

type t = {
  mutable histories : history array;  (** indexed by [File_id.to_int] *)
  mutable commits : int;
}

let create () = { histories = [||]; commits = 0 }

let ensure t idx =
  let cap = Array.length t.histories in
  if idx >= cap then begin
    let cap' = Int.max 64 (Int.max (idx + 1) (2 * cap)) in
    let histories' = Array.make cap' Initial in
    Array.blit t.histories 0 histories' 0 cap;
    t.histories <- histories'
  end

(* Read-only history lookup: never-written files (and never-seen ids) read
   as the empty history — no allocation, no slot creation. *)
let history_ro t file =
  let idx = File_id.to_int file in
  if idx < Array.length t.histories then Array.unsafe_get t.histories idx else Initial

let current t file =
  match history_ro t file with
  | Commit { version; _ } -> version
  | Initial -> Version.initial

let commit t file ~at =
  let idx = File_id.to_int file in
  ensure t idx;
  let h = t.histories.(idx) in
  let version =
    match h with
    | Commit { version; at = last; _ } ->
      if Time.(at < last) then
        invalid_arg "Store.commit: commit instants must be non-decreasing";
      Version.next version
    | Initial -> Version.next Version.initial
  in
  t.histories.(idx) <- Commit { version; at; older = h };
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
