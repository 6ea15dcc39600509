(** The lease-granting file server.

    Implements Section 2's server side plus the Section-4 options and the
    Section-5 recovery rule:

    - grants a lease with every read/extension reply (unless the term
      policy says zero, or a write is waiting on the file — the paper's
      anti-starvation footnote);
    - defers a write until every other leaseholder has approved it or every
      covering lease has expired {e on the server's clock}; the writer's
      approval is implicit in its write request;
    - optionally never asks for approval and simply waits out the leases
      ([callback_on_write = false]);
    - optionally covers installed files with a periodic multicast refresh,
      keeping {e no per-client record} for them and handling writes to them
      by dropping the file from the refresh and waiting out the last
      coverage;
    - on recovery after a crash, delays writes using the persistent WAL
      record: for the configured maximum term ([Max_term_only]) or for the
      file's own last recorded lease ([Detailed]).

    Volatile state (lease table, pending writes, duplicate-suppression
    cache) is lost on crash; the store and WAL survive. *)

type t

val create :
  engine:Simtime.Engine.t ->
  clock:Clock.t ->
  net:Messages.payload Netsim.Net.t ->
  liveness:Host.Liveness.t ->
  host:Host.Host_id.t ->
  clients:Host.Host_id.t list ->
  store:Vstore.Store.t ->
  config:Config.t ->
  ?on_commit:(Vstore.File_id.t -> Vstore.Version.t -> unit) ->
  ?tracer:Trace.Sink.t ->
  unit ->
  t
(** Registers the message handler and liveness hooks for [host].
    [clients] is the multicast population for installed-file refreshes.
    [on_commit] fires at the instant each write commits — the hook the
    name service uses to apply directory mutations exactly when their
    covering version bump becomes visible.  [tracer] receives the
    server-side protocol events (grants, releases, write waits, approvals,
    commits, installed coverage); disabled by default. *)

val host : t -> Host.Host_id.t
val store : t -> Vstore.Store.t
val wal : t -> Vstore.Wal.t
val clock : t -> Clock.t

(** {2 Introspection for tests and metrics} *)

val live_leases : t -> Vstore.File_id.t -> Host.Host_id.t list
(** Holders with unexpired leases right now (server clock), sorted by host
    id; installed files covered by multicast refresh report no holders, by
    design.  Reaps the file's expired records as a side effect — this is a
    test/metrics accessor, not a hot-path helper. *)

val recovering : t -> bool

type snapshot = {
  lease_files : int;  (** files with at least one live lease record *)
  lease_records : int;
      (** records unexpired on the server clock: the snapshot sweeps
          first, so no other record is resident *)
  pending_writes : int;  (** writes waiting on approvals or lease expiry *)
  queued_writes : int;  (** writes queued behind a pending one *)
  queued_files : int;
      (** files with a queued-write table entry; bounded by the files with
          writes outstanding — a drained-empty queue is removed at commit *)
  recovering : bool;
  up : bool;
}

val snapshot : t -> snapshot
(** One read-only view of the server's volatile occupancy, taken at the
    current instant.  This is {e the} accessor for both the telemetry
    sampler and tests — nothing else exposes the internal tables. *)

val set_breakdown : t -> Breakdown.t option -> unit
(** Attach (or detach) per-entity hot-counter breakdowns.  [None] (the
    default) keeps every bump site down to one load and one branch. *)

val breakdown : t -> Breakdown.t option

val messages_handled : t -> Messages.category -> int
(** Messages sent or received by the server in this category — the paper's
    unit of server load. *)

val messages_handled_total : t -> int
val consistency_messages : t -> int
(** [Extension + Approval + Installed]. *)

val callbacks_sent : t -> int
(** Approval-request multicasts issued (retries included). *)

val commits : t -> int
val write_wait : t -> Stats.Histogram.t
(** Engine-time delay from write arrival to commit, per committed write. *)

val counters : t -> Stats.Counter.Registry.t
