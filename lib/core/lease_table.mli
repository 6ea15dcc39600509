(** The server's volatile per-file lease-holder table.

    An int-keyed mutable layout: one mutable slot per granted file, in
    fixed-size chunks of file ids reached through a directory indexed by
    file id, so a table costs a directory word per chunk below its largest
    granted id plus the chunks it wrote, not a word per id.  Files never
    granted share one empty slot, and chunks no grant has touched one
    empty chunk; neither is ever written.  A slot holds its record inline while the
    file has one holder, and a holder table once it has had two: an
    open-addressing table keyed by holder whose entries are also the nodes
    of a doubly linked list in ascending (expiry, holder) order, four ints
    of one flat array each.  Records whose expiry the server clock has
    passed are {e reaped} — removed for good — lazily on the next access to
    the file and in bulk by the server's periodic {!sweep}.  A shared file
    reaps by popping expired records off its list's head, in (expiry,
    holder) order, so a reap costs O(1) per reaped record and nothing per
    live one, and every aggregate here costs time proportional to the
    file's {e live} holders, never to its lifetime holder history.  The
    per-message hot path ([record]/[remove_holder]/[drop_file]) is a reap
    check plus O(1) work for a private file, and a probe, an unlink and a
    relink for a shared one; [live_count] — the adaptive grant path's only
    aggregate — is a reap check plus a count.

    Reaping is semantically invisible to every query (an expired record
    was already excluded from all of them); its one observable effect is
    that a server clock stepped {e backwards} cannot resurrect a record
    reaped before the step.  That direction of forgetting is the unsafe
    fast-server-clock polarity the protocol already covers with the
    client-side skew allowance, and the trace checker consumes the
    [lease-expire] events emitted through {!set_on_reap} so reaps are
    never mistaken for releases.

    All aggregates are deterministic: order-independent folds, or results
    sorted by holder id.  Reaps report their records in (expiry, holder)
    order, so no result depends on hash layout.

    The table is volatile server state — [clear] restores the just-crashed
    empty state (leases survive only in the WAL, as recovery deadlines). *)

type t

val create : unit -> t

val set_on_reap : t -> (Vstore.File_id.t -> Host.Host_id.t -> Lease.expiry -> unit) -> unit
(** Install the per-reaped-record hook (default: ignore).  Called inside
    the reap pass, once per removed record; it must not re-enter the
    table.  One pass reaps one file, and reports its records in ascending
    (expiry, holder) order; a {!sweep} passes over files in ascending id
    order.  The server uses it to emit [lease-expire] trace events. *)

val record :
  t -> Vstore.File_id.t -> Host.Host_id.t -> Lease.expiry -> now:Simtime.Time.t -> unit
(** Upsert one holder's lease on a file, at its server-clock expiry.  The
    file's expired records are reaped at [now] first, exactly as a query
    would reap them; then a renewal (same holder) overwrites its record.
    On a private file that is one write into the slot.  On a shared file
    the record is found with one probe of the holder table, unlinked, and
    relinked by walking back from the list's tail: under a fixed term and
    a monotone server clock the new expiry is the latest and the walk is
    one compare.  A record that never expires is linked at the tail with no
    walk.  A varying term walks further, and so does a renewal after the
    server clock steps backwards, past every record granted before the
    step, until those records are renewed or expire; the order stays
    exact. *)

val remove_holder : t -> Vstore.File_id.t -> Host.Host_id.t -> unit
(** Drop one holder's record (approval received, or implicit writer
    self-approval).  No-op if absent. *)

val drop_file : t -> Vstore.File_id.t -> unit
(** Forget every record on the file (commit: remaining records are stale). *)

val fold_live :
  t ->
  Vstore.File_id.t ->
  now:Simtime.Time.t ->
  init:'a ->
  f:(Host.Host_id.t -> Lease.expiry -> 'a -> 'a) ->
  'a
(** Fold over holders whose lease is unexpired at [now] (server clock),
    reaping expired records first.  Visit order is unspecified; [f] must
    be order-independent. *)

val live_count : t -> Vstore.File_id.t -> now:Simtime.Time.t -> int
(** O(1) after the reap check: the post-reap table length. *)

val live_holders : t -> Vstore.File_id.t -> now:Simtime.Time.t -> Host.Host_id.t list
(** Sorted by holder id. *)

val live_deadline :
  t -> Vstore.File_id.t -> now:Simtime.Time.t -> init:Lease.expiry -> Lease.expiry
(** Latest live expiry on the file, at least [init]. *)

val write_snapshot :
  t ->
  Vstore.File_id.t ->
  now:Simtime.Time.t ->
  init:Lease.expiry ->
  Lease.expiry * Host.Host_id.Set.t
(** [live_deadline] and [live_holder_set] in one reap-and-fold pass — the
    write path's single visit. *)

val sweep : t -> now:Simtime.Time.t -> bool
(** Reap every slot whose earliest expiry has passed, in one pass over the
    resident slots in ascending file order: each chunk keeps a bitmap of
    its slots that hold a record, so a sweep skips an untouched chunk with
    one test and a word of 32 empty slots with another, and reads no empty
    slot, visiting each resident slot once, plus the amortized reap work.
    Driven periodically from the server clock so idle files do not hold
    their expired records until the next access.  Returns whether a resident
    record can still expire (some finite expiry remains); the server
    re-arms its sweep timer only then, because a timer that re-armed
    unconditionally would keep the simulation's event queue alive
    forever. *)

type occupancy = { files : int; records : int }

val occupancy : t -> now:Simtime.Time.t -> occupancy
(** Whole-table occupancy after a {!sweep} at [now]: files with at least
    one live record, and the live record count (the sweep leaves no other
    record resident).  Costs what {!sweep} costs, not O(lifetime
    records). *)

val clear : t -> unit
(** Crash reset: empty the table in place. *)
