(** Wire messages of the write-back lease protocol (read/write leases).

    This is the extension the paper waves at in Section 2 ("extending the
    mechanism to support non-write-through caches is straightforward") and
    relates to in Section 6: Burrows's MFS and the Echo file system use
    {e tokens} — "limited-term leases, but supporting non-write-through
    caches".

    Two lease modes:

    - a {e read} lease is the Section-2 lease: cached reads are valid
      while it lasts;
    - a {e write} lease is exclusive: its holder may apply writes locally
      (write-back) and serve its own reads from the dirty copy; everyone
      else is locked out until the holder flushes and releases, or the
      lease expires.

    Every write-lease grant carries an {e epoch}; a flush is accepted only
    from the current epoch while the lease is still valid on the server's
    clock.  A client whose write lease expired unflushed (e.g. across a
    partition) loses those buffered writes — safely: nothing another
    client could have observed is lost, which is exactly the weaker
    failure semantics the paper attributes to non-write-through caching. *)

type mode =
  | Read_lease
  | Write_lease

type epoch = int

type payload =
  | Acquire_request of { req : int; file : Vstore.File_id.t; mode : mode }
  | Acquire_reply of {
      req : int;
      file : Vstore.File_id.t;
      version : Vstore.Version.t;
      granted : (mode * Simtime.Time.Span.t * epoch) option;
          (** [None]: no lease granted (conflict pending); retry later *)
    }
  | Flush_request of { req : int; file : Vstore.File_id.t; epoch : epoch; local_writes : int }
  | Flush_reply of {
      req : int;
      file : Vstore.File_id.t;
      accepted : (Vstore.Version.t * Simtime.Time.Span.t) option;
      (** on acceptance, the new durable version and the renewed lease
          term — a successful flush proves the holder is alive, so the
          server re-extends its write lease, unless a conflicting
          acquisition is already waiting on it, in which case the term is
          zero; [None]: stale epoch or expired lease — the buffered writes
          are rejected and lost *)
    }
  | Recall_request of { recall : int; file : Vstore.File_id.t }
      (** relinquish your lease on [file] (flushing first if dirty) *)
  | Recall_reply of { recall : int; file : Vstore.File_id.t }

val mode_to_string : mode -> string
val pp : Format.formatter -> payload -> unit
