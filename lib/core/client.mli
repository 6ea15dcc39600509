(** The leasing client cache.

    A read is served locally iff the datum is cached {e and} covered by an
    unexpired lease on the client's own clock; otherwise the client sends a
    read/extension RPC (batched over all held files when
    [batch_extensions]), retransmitting on loss.  Writes are write-through.
    The client answers the server's approval callbacks by invalidating its
    copy, and accepts the multicast installed-file refreshes.

    A crash clears the cache and abandons outstanding operations — their
    continuations are never invoked, which the driver reports as dropped
    operations. *)

type t

val create :
  ?engine:Simtime.Engine.t ->
  clock:Clock.t ->
  net:Messages.payload Netsim.Net.t ->
  liveness:Host.Liveness.t ->
  host:Host.Host_id.t ->
  server:Host.Host_id.t ->
  ?route:(Vstore.File_id.t -> Host.Host_id.t) ->
  ?rng:Prng.Splitmix.t ->
  config:Config.t ->
  ?tracer:Trace.Sink.t ->
  ?req_origin:int ->
  unit ->
  t
(** Every granted term is shortened on arrival by [config.skew_allowance]
    and by the grant's transit time, [Netsim.Net.transit net] (the
    paper's [m_prop + 2*m_proc], Section 3.1).
    [route] maps each file to the host of the server that owns it
    (default: the constant [server]); every RPC, approval reply and
    batched extension targets the owning server, and renewal state is
    kept per server.  RPCs are retransmitted by a {!Netsim.Rpc_table}:
    each retry waits [Rpc_table.retry_interval * 2^k] (1 s doubling)
    capped at 8 s, scaled by a uniform factor in [0.5, 1.5) drawn from
    [rng]; without [rng] the backoff is deterministic and unjittered.
    [tracer] receives the client-side protocol events (cache hits, misses and
    invalidations, local lease records); disabled by default.
    [req_origin] seeds the request-id counter (default
    [host lsl 32]) — a deployment that instantiates the same client host
    in several sub-simulations gives each instance a distinct origin so
    correlation ids stay unique in the merged trace.  The client runs on
    [net]'s engine; [engine], when given, must be that engine
    ([Invalid_argument] otherwise). *)

val host : t -> Host.Host_id.t
val clock : t -> Clock.t

type read_result = {
  r_version : Vstore.Version.t;
  r_latency : Simtime.Time.Span.t;  (** engine time from issue to completion *)
  r_from_cache : bool;
}

val read : t -> Vstore.File_id.t -> k:(read_result -> unit) -> unit
(** [k] fires exactly once per completed read — immediately for a cache
    hit, on RPC completion otherwise; never if the client crashes first. *)

type write_result = {
  w_version : Vstore.Version.t;
  w_latency : Simtime.Time.Span.t;
}

val write : t -> Vstore.File_id.t -> k:(write_result -> unit) -> unit

(** {2 Introspection} *)

val holds_valid_lease : t -> Vstore.File_id.t -> bool
(** On the client's own clock, right now. *)

val cache_size : t -> int

val eviction_bound : t -> Lease.expiry
(** The miss-path eviction pass's lower bound on the earliest local expiry
    among cached entries ({!Lease.never} when nothing can expire): a miss
    runs a pass once this is a full [Config.cache_eviction_grace] behind
    the client's clock. *)

val inflight_rpcs : t -> int
(** RPCs on the wire (retransmission timers armed). *)

val queued_ops : t -> int
(** Operations blocked behind an in-flight RPC on the same file. *)

val hits : t -> int
val misses : t -> int
val approvals_answered : t -> int
val retransmissions : t -> int
val renewals_sent : t -> int
(** Anticipatory extension RPCs issued with no read waiting. *)

val evictions : t -> int
(** Cache entries reclaimed by the periodic eviction sweep
    ([Config.cache_eviction_grace]) because their lease had lapsed at
    least a full grace earlier. *)

val counters : t -> Stats.Counter.t list
(** The client's seven counters (approvals answered, evictions, fallback
    reads, hits, misses, renewals sent, retransmissions), sorted by name.
    They are fixed at creation; the list is built on each call. *)
