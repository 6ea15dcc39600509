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
      The window also carries the merged counter registries, client RPC
      queues, in-flight network messages, every clock's skew and the
      per-entity breakdown, and its [t_end] is the engine clock at the
      boundary.
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

    Sampling is pull-only apart from the listeners, which only count: the
    sampler reads accessors ({!Leases.Server.snapshot}, counter registries,
    clock readings) and never mutates protocol state, so an attached
    sampler cannot perturb the schedule beyond its own boundary callbacks
    (which run no protocol code).

    A one-server sample reads ints.  {!attach} resolves the merged counter
    namespace once, into arrays of sorted names, counter cells and previous
    values, and resolves it again only when a registry has grown; it also
    builds the skew labels once.  The per-entity deltas come from
    {!Leases.Breakdown.sample}, which costs the keys that moved. *)

type window = {
  w_index : int;
  t_start : float;  (** window start, engine seconds *)
  t_end : float;  (** window end (the sample instant), engine seconds *)
  counters : (string * int) list;
      (** cumulative merged counter dump at [t_end]: server registry under
          ["server/"], client [i]'s under ["client/i/"]; sorted by name;
          empty in a K-server world *)
  deltas : (string * int) list;
      (** counters that moved this window, with their increments; sparse
          and sorted (a sub-sequence of [counters]) *)
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
  lease_records : int;
  lease_records_live : int;
  pending_writes : int;
  queued_writes : int;
  client_inflight : int;  (** RPCs on the wire, summed over clients *)
  client_queued_ops : int;
  in_flight_msgs : int;  (** network attempts not yet delivered or dropped *)
  server_up : bool;
  server_recovering : bool;
  skews : (string * float) list;
      (** per-host clock reading minus engine time, seconds; keys
          ["server"], ["client/0"], ... *)
  by_entity : (string * (int * int) list) list;
      (** per-entity hot-counter deltas this window: axis label (see
          {!Leases.Breakdown.axes}) to sorted (entity id, increment)
          pairs; sparse — axes and entities that did not move are
          omitted *)
  write_phase_sums : (string * float) list;
      (** per-phase write-delay sums (seconds) the critical-path analyzer
          attributed to this window's server, in
          {!Trace.Critical_path.phases} order; sparse — phases that did
          not move are omitted, and the list is empty when the sampler
          has no analyzer *)
}

type t

val create : ?interval_s:float -> ?latency:Trace.Critical_path.t -> unit -> t
(** A detached sampler.  [interval_s] defaults to 10 s; it must be
    positive and finite.  With [latency], a live analyzer fed from the
    run's tracer, each window carries its server's per-phase write-delay
    increments, read from {!Trace.Critical_path.phase_sums_for} at the
    boundaries. *)

val attach : t -> Leases.Sim.world -> Leases.Cluster.tally -> unit
(** Hook the sampler to a world and the op driver's tally and schedule the
    first boundary callback.  A one-server world gets a
    {!Leases.Breakdown.t} installed on its server; a K-server world gets
    the sampler's completion listeners.  Pass
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
