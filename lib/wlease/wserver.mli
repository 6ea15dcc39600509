(** The write-back lease server.

    Grants read (shared) and write (exclusive) leases.  A conflicting
    acquisition — a write request while anyone else holds a lease, or a
    read request while another client holds a write lease — triggers
    recalls: the server asks the conflicting holders to flush (if dirty)
    and relinquish, and grants when all have answered or their leases have
    expired on the server's clock.  Acquisitions on a file queue FIFO
    behind the one in progress, so writers cannot be starved (the same
    anti-starvation rule as the write-through server, whose approval
    round, {!Leases.Approval}, runs the recalls too).  A retransmitted
    acquisition that arrives after its grant is answered with that grant,
    and only the term left of it, while the server still records it for
    the holder; it never starts a second grant at a new epoch.

    Flushes are validated by (holder, mode, expiry, epoch): anything stale
    is rejected, which is what makes expiry safe — an unreachable writer's
    buffered updates can never land after the server has moved on. *)

type t

val create :
  engine:Simtime.Engine.t ->
  clock:Clock.t ->
  net:Wmessages.payload Netsim.Net.t ->
  liveness:Host.Liveness.t ->
  host:Host.Host_id.t ->
  store:Vstore.Store.t ->
  term:Simtime.Time.Span.t ->
  unit ->
  t

val host : t -> Host.Host_id.t

(** {2 Introspection} *)

val commits : t -> int
val recalls_sent : t -> int
val flushes_accepted : t -> int
val flushes_rejected : t -> int
val messages_extension : t -> int
(** Acquire traffic handled (sent or received). *)

val messages_recall : t -> int
val messages_flush : t -> int
val grant_wait : t -> Stats.Histogram.t
(** Seconds from a conflicting acquisition's arrival to its grant. *)
