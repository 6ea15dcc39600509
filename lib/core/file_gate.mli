(** One request in service per file, the rest waiting their turn.

    The write rule serves one write per file at a time and queues the later
    ones, so that a writer cannot be starved (Section 2's anti-starvation
    footnote); a caching client serialises its own operations on a file for
    the same reason, so that a read cannot overtake the client's own write
    and re-lease the old version.  A gate is that one rule: at most one
    request per file is in service (the file's holder), later ones wait in
    FIFO order, and freeing the file serves the waiters in order until one
    holds it again.  A drained queue is forgotten.

    The approval round ({!Approval}) keeps its open rounds as holders and
    its queued requests as waiters; the lease client and the write-back
    client hold a file while its read or write RPC is in flight and queue
    their operations behind it.  Callers queue a request only behind a
    holder, so a file has waiters and no holder only while {!free} serves
    them.

    ['h] is what a holder keeps, ['w] a waiting request.  A gate creates
    its waiter table on a {!wait} and drops it once every queue has
    drained, so while nothing waits it holds its record and its holder
    table only. *)

type ('h, 'w) t

val create : unit -> ('h, 'w) t

val held : ('h, 'w) t -> Vstore.File_id.t -> bool
(** The file has a holder.  One load from the gate when nothing is held. *)

val holder : ('h, 'w) t -> Vstore.File_id.t -> 'h
(** The file's holder; raises [Not_found] when it has none. *)

val hold : ('h, 'w) t -> Vstore.File_id.t -> 'h -> unit
(** Put a request in service on a file that has no holder. *)

val wait : ('h, 'w) t -> Vstore.File_id.t -> 'w -> unit
(** Queue a request behind the file's holder. *)

val free : ('h, 'w) t -> Vstore.File_id.t -> ('c -> Vstore.File_id.t -> 'w -> unit) -> 'c -> unit
(** [free t file serve c] drops the file's holder, if any, then pops its
    waiters in FIFO order and hands each to [serve c file] until one holds
    the file again or none is left.  A waiter served synchronously (a cache
    hit, a write committed at once) lets the next one in.  [serve] and [c]
    are passed apart so that a top-level [serve] allocates no closure. *)

val waits : ('h, 'w) t -> Vstore.File_id.t -> ('w -> bool) -> bool
(** Some request waiting on the file satisfies the predicate. *)

val iter : ('h -> unit) -> ('h, 'w) t -> unit
(** Every holder, in no particular order. *)

val reset : ('h, 'w) t -> unit
(** Forget every holder and waiter, as a crash does: no waiter is served. *)

val held_files : ('h, 'w) t -> int
(** Files with a holder. *)

val waiters : ('h, 'w) t -> int
(** Requests waiting, over every file. *)

val waiting_files : ('h, 'w) t -> int
(** Files with requests waiting. *)
