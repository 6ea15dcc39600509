(** The write-back client cache.

    Reads are served locally under any valid lease.  Writes require a
    write lease; once held, writes apply locally (zero latency) and are
    flushed to the server either when the write-back delay elapses,
    shortly before the lease expires, or when the server recalls the lease
    for a conflicting acquisition.

    A crash loses the dirty buffer — only writes no other client could
    have observed, since the write lease was exclusive.  A flush rejected
    by the server (stale epoch: the lease expired or the server moved on)
    also discards the buffer; both cases are counted in [writes_lost]. *)

type t

val create :
  engine:Simtime.Engine.t ->
  clock:Clock.t ->
  net:Wmessages.payload Netsim.Net.t ->
  liveness:Host.Liveness.t ->
  host:Host.Host_id.t ->
  server:Host.Host_id.t ->
  skew_allowance:Simtime.Time.Span.t ->
  unit ->
  t
(** A granted term is shortened as {!Leases.Lease.client_expiry} shortens
    it: by [skew_allowance] (the paper's epsilon, [Leases.Config]'s
    [skew_allowance]) and by its transit time, [Netsim.Net.transit net].
    Unanswered RPCs are re-sent every second; dirty data is flushed 5 s
    after the first buffered write, or 1 s before the write lease expires
    if that is sooner. *)

val host : t -> Host.Host_id.t

type read_result = {
  r_version : Vstore.Version.t;
      (** for a dirty local read, the last {e flushed} version — the local
          writes on top of it have no server version yet *)
  r_latency : Simtime.Time.Span.t;
  r_from_cache : bool;
  r_dirty : bool;  (** served from locally buffered (unflushed) writes *)
}

val read : t -> Vstore.File_id.t -> k:(read_result -> unit) -> unit

type write_result = {
  w_latency : Simtime.Time.Span.t;
      (** zero when the write lease was already held — the whole point *)
  w_acquired_lease : bool;
}

val write : t -> Vstore.File_id.t -> k:(write_result -> unit) -> unit

(** {2 Introspection} *)

val holds_lease : t -> Vstore.File_id.t -> Wmessages.mode option
val dirty_writes : t -> Vstore.File_id.t -> int
val hits : t -> int
val misses : t -> int
val flushes_sent : t -> int
val writes_lost : t -> int
val recalls_answered : t -> int
val retransmissions : t -> int
