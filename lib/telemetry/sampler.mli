(** Periodic telemetry sampler driven by the simulation clock: the one
    collector of every lease world.

    A sampler attaches to a world through the [on_instruments] hook of a
    [Leases.Sim.setup] or a [Shard.Deploy.setup] and closes one window
    per server of the world at every multiple of the sampling interval.
    A window carries the deltas since the previous boundary and the
    server's gauges at this one: lease-table occupancy, pending and queued
    writes, and whether it is up.

    Window semantics: boundaries sit at [k * interval] of {e engine} time,
    one boundary event for the whole world, armed after the faults and the
    first op.  The engine runs same-instant callbacks in scheduling order
    and protocol events are always scheduled before the boundary callback
    fires, so a window covers the half-open interval (t_start, t_end] by
    scheduling order.  [Engine.run ~until] stops exactly on the horizon, so
    {!finalize} closes one trailing partial window only when the horizon is
    not itself a boundary.

    {2 Two read-count rules}

    What a window's [reads], [hits], [misses] and delay sums count depends
    on the world's server count:

    - {b One server} ([Sim.run], each split part, a one-shard
      [Deploy.run]): the clients' counters.  A cache hit counts when the
      client serves it; a miss counts when its request is sent, so a read
      that a crash then abandons still counts.  The delay sums and counts
      come from the op driver's latency histograms, which see completions.
      The window also carries the client RPC queues and the in-flight
      network messages, and its [t_end] is the engine clock at the
      boundary.  Only a sampler created with [~detail:true] also records
      the window's {!detail}: the merged counters (the server's registry
      and each client's counter list), every clock's skew and the
      per-entity breakdown.
    - {b K > 1 servers} (shared-fabric [Deploy.run]): per-server
      completions.  The sampler installs the world's completion listeners
      and credits each completed read and write to the server that owns
      its file.  These windows carry only per-server fields: the counter
      dumps, client queues, in-flight messages, skews and breakdown are
      empty or zero, so sampling costs no registry walk.  Their [t_end] is
      the nominal [k * interval], not rounded to the engine's microsecond.

    Both rules stay because the seeded campaign digests pin both: one rule
    would change about a tenth of the campaign's windows and most of the
    one-server schedules' residual summaries.

    {2 Detail on request}

    Without [~detail] (the default) a window keeps what the residuals and
    the report's count columns read: the counts, the delay sums, the
    server snapshot, the clients' in-flight and queued operations, the
    in-flight messages and the phase sums.  Its {!detail} is empty, and
    {!attach} installs no {!Leases.Breakdown} on the server, so the
    server's read, renewal, approval and wait paths bump no per-entity
    table, and it resolves no counter namespace and no skew labels.  The
    campaign runner samples this way; [leases-sim] asks for detail only
    when it writes a [--telemetry-out] report, and {!Report} refuses a
    sampler without it.  The detail changes no other field: a lean
    window equals the detailed one field by field, [detail] aside.

    {2 What an attached sampler changes}

    Sampling is pull-only apart from the listeners, which only count, and
    no protocol decision reads anything the sampler writes: a run's
    metrics are the same with and without it.  Its trace is not quite the
    same.  {!Leases.Server.snapshot} sweeps the lease table, so a record
    that expired since the last reap is reaped at the boundary, and its
    [lease-expire] event is emitted there, rather than at the server's
    next access to the file or its next periodic sweep.  The boundary
    events also add engine heartbeats.  On [leases-sim -p leases -t 10 -n 4
    -d 300 -s 5 --trace F], adding [--telemetry 2.5] leaves the same 2 653
    [lease-expire] events at other instants, raises the heartbeats from
    246 to 293 and leaves every other line as it was (pinned in
    [test_telemetry]).  The campaign's [checked_events] counts these
    events, and its reports are pinned, which is why the snapshot keeps
    its sweep and a lean sampler keeps both the snapshot and its
    boundary timers.

    {2 Cost}

    A one-server window costs what moved, in arrays.  With detail,
    {!attach} resolves the merged counter namespace once, into arrays of
    sorted names and counter cells (lease servers and clients register
    every counter at creation); it also builds the skew and axis labels
    once.  A boundary then reads every cell into one fresh [int array]
    and keeps the previous boundary's array beside it, reads the clock
    skews into one [float array], and keeps each moved
    {!Leases.Breakdown} axis as the flat array
    {!Leases.Breakdown.sample} returns.  Without detail it does none of
    that.  Either way the lease-table sweep visits only resident slots,
    and the message and read counts are resolved cells.  The list views
    ({!counters}, {!deltas}, {!skews}, {!by_entity}) are built only when
    read. *)

type detail
(** A one-server window's counters, clock skews and per-entity deltas, kept
    as arrays; read them through {!counters}, {!deltas}, {!skews} and
    {!by_entity}.  Empty in a K-server window and in every window of a
    sampler created without [~detail].  It holds no closure, so windows
    compare with [=]. *)

type window = {
  w_index : int;
  t_start : float;  (** window start, engine seconds *)
  t_end : float;  (** window end (the sample instant), engine seconds *)
  reads : int;
      (** client reads this window, [hits + misses]; see the two
          read-count rules above for when a read counts *)
  hits : int;
  misses : int;
  commits : int;  (** server write commits this window *)
  extension_msgs : int;  (** Extension-category messages this window *)
  approval_msgs : int;
  installed_msgs : int;
  write_transfer_msgs : int;
  read_delay_sum : float;  (** summed latency (s) of the reads completed this window *)
  read_delay_count : int;
  write_delay_sum : float;
  write_delay_count : int;
  lease_files : int;  (** gauge at [t_end]: files with lease records *)
  lease_records : int;  (** gauge at [t_end]: live lease records *)
  pending_writes : int;
  queued_writes : int;
  client_inflight : int;  (** RPCs on the wire, summed over clients *)
  client_queued_ops : int;
  in_flight_msgs : int;  (** network attempts not yet delivered or dropped *)
  server_up : bool;
  server_recovering : bool;
  write_phase_sums : (string * float) list;
      (** per-phase write-delay sums (seconds) the critical-path analyzer
          attributed to this window's server, in
          {!Trace.Critical_path.phases} order; sparse — phases that did
          not move are omitted, and the list is empty when the sampler
          has no analyzer *)
  detail : detail;  (** empty in a K-server world and without [~detail] *)
}

(** {2 A window's detail}

    Each accessor builds its list from the window's arrays when called;
    every one returns [[]] for a K-server window and for a sampler created
    without [~detail]. *)

val counters : window -> (string * int) list
(** The cumulative merged counter dump at [t_end]: the server's registry
    under ["server/"], client [i]'s {!Leases.Client.counters} under
    ["client/i/"]; sorted by name. *)

val deltas : window -> (string * int) list
(** The counters that moved this window, with their increments; sparse and
    sorted (a sub-sequence of {!counters}). *)

val skews : window -> (string * float) list
(** Per-host clock reading minus engine time, seconds, at [t_end]; keys
    ["server"], ["client/0"], ... *)

val by_entity : window -> (string * (int * int) list) list
(** Per-entity hot-counter deltas this window: axis label (see
    {!Leases.Breakdown.axes}) to sorted (entity id, increment) pairs;
    sparse — axes and entities that did not move are omitted. *)

type t

val create :
  ?interval_s:float -> ?latency:Trace.Critical_path.t -> ?detail:bool -> unit -> t
(** A detached sampler.  [interval_s] defaults to 10 s; it must be finite
    and at least the engine's 1 us tick, because boundaries land on the
    engine's microsecond grid: a shorter interval raises
    [Invalid_argument] rather than closing one window per tick.  With
    [latency], a live analyzer fed from the run's tracer, each window
    carries its server's per-phase write-delay increments, read from
    {!Trace.Critical_path.phase_sums_for} at the boundaries.  [detail]
    (default [false]) records each one-server window's {!detail}; see
    "Detail on request" above. *)

val detailed : t -> bool
(** Whether the sampler was created with [~detail:true]. *)

val attach : t -> Leases.Sim.world -> Leases.Cluster.tally -> unit
(** Hook the sampler to a world and the op driver's tally and schedule the
    first boundary callback.  A one-server world gets a
    {!Leases.Breakdown.t} installed on its server when the sampler records
    detail, and none otherwise; a K-server world gets the sampler's
    completion listeners.  Pass
    [{ setup with on_instruments = Sampler.attach sampler }] to
    [Leases.Sim.run] or [Shard.Deploy.run]; a split run builds one world
    per part, so it needs one sampler per part.  A sampler attaches to
    exactly one run; reattaching raises [Invalid_argument]. *)

val finalize : t -> unit
(** Close the trailing partial window at the current engine instant, if any
    simulated time has passed since the last boundary.  Call after the run
    returns.  Idempotent; a no-op when never attached. *)

val servers : t -> int
(** The servers of the attached world; 0 before {!attach}. *)

val windows : ?server:int -> t -> window list
(** Closed windows in time order: server [server]'s (index into the
    world's servers), or without [server] every server's, server by
    server.  Raises [Invalid_argument] for a server outside the world. *)

val duration_s : window -> float
val consistency_msgs : window -> int
(** [extension_msgs + approval_msgs + installed_msgs] — the paper's
    consistency-message count for the window. *)

val max_abs_skew : window -> float
