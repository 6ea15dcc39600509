(** The server's primary storage.

    Write-through semantics: a committed write is immediately persistent, so
    it survives server crashes (the paper's recovery argument assumes
    exactly this).  The store also records the full version history with
    commit instants, which is what lets the consistency oracle decide
    whether a read observed a version that was current at some instant
    during the read.

    The history is bookkeeping for the oracle, not state the simulated
    server consults; a real server would keep only the latest version.

    Histories are kept in fixed-size chunks of file ids, allocated at the
    first commit to an id in them, so a store costs a directory word per
    chunk below its largest committed id plus the chunks it wrote, not a
    word per id.  Reads never allocate. *)

type t

val create : unit -> t

val current : t -> File_id.t -> Version.t
(** Every file implicitly exists at {!Version.initial}. *)

val commit : t -> File_id.t -> at:Simtime.Time.t -> Version.t
(** Apply a write at the given instant; returns the new version.  Commit
    instants must be non-decreasing per file. *)

val commits : t -> int
(** Total writes committed across all files. *)

val current_at : t -> File_id.t -> Simtime.Time.t -> Version.t
(** The version that was current at the given instant. *)

val was_current_during :
  t -> File_id.t -> Version.t -> start:Simtime.Time.t -> finish:Simtime.Time.t -> bool
(** Whether the version was the current one at {e some} instant in
    [start, finish] — the atomicity condition for a read spanning that
    window. *)

val staleness_at :
  t -> File_id.t -> Version.t -> at:Simtime.Time.t -> Simtime.Time.Span.t option
(** If the version was already superseded at [at], how long before [at] the
    superseding commit happened; [None] if the version was still current. *)
