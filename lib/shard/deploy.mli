(** Sharded multi-server deployment.

    Partitions the file namespace across N independent lease servers with
    a {!Shard_map} and runs them as one [Leases.Sim] lease world on the
    shared [Leases.Cluster] harness (fabric, fault scheduler, op issue):
    shard [s]'s server is host [s], client [i] is host [n_shards + i], and
    with several shards every client routes each operation to the owning
    server through [Leases.Client]'s [route] hook — per-server retry
    state, per-server renewal batching, approval replies to whichever
    server asked.  The servers share one versioned store (their file sets
    are disjoint) but keep independent WALs, lease tables and clocks, so a
    crashed shard runs the max-term recovery wait on its own while the
    others keep serving.  With one shard there is nothing to route, and
    {!run} builds exactly [Leases.Sim.run]'s world: same metrics, same
    event stream, same telemetry windows.

    Fault vocabulary: [Leases.Sim.Crash_shard] and the server clock faults
    name the owning server of a shard (index taken modulo the shard
    count); a plain [Crash_server] and the two-argument clock-fault specs
    mean shard 0, so single-server fault schedules replay on a sharded
    cluster.  The consistency oracle observes the shared store exactly as
    in the single-server harness. *)

type setup = {
  seed : int64;
  n_clients : int;
  n_shards : int;
  config : Leases.Config.t;
  m_prop : Simtime.Time.Span.t;
  m_proc : Simtime.Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Simtime.Time.Span.t;
  tracer : Trace.Sink.t;
  on_instruments : Leases.Sim.world -> Leases.Cluster.tally -> unit;
      (** [Leases.Sim.setup.on_instruments]: called once per world, with
          the world and the op driver's tally, after the faults and the
          first op are scheduled and before the engine starts — once for
          {!run}, once per part for {!run_split}, on the part's domain
          (part [s]'s one server is host [s]).  The hook a telemetry
          sampler attaches through; the default does nothing. *)
  profilers : Profile.Recorder.t array;
      (** the recorder installed on {!run}'s one engine is [profilers.(0)],
          and on sub-simulation [s]'s engine [profilers.(s)]
          (out-of-range indices get {!Profile.Recorder.null}).  The caller
          creates them because the recorder needs a wallclock timer this
          library does not have.  Empty — the default — profiles nothing. *)
}

val default_setup : setup
(** Seed 1, one client, four shards, {!Leases.Config.default},
    V LAN message times, no loss, no faults, 120 s drain, no tracing, no
    instruments. *)

val server_host : int -> Host.Host_id.t
(** Shard [s]'s server is host [s]. *)

val client_host : setup -> int -> Host.Host_id.t
(** Client [i] is host [n_shards + i]. *)

val server_hosts : setup -> int list
(** All server host ids, for the trace checker's [servers] argument. *)

val shard_map : setup -> Shard_map.t
(** The map {!run} and {!run_split} place files with, a pure function of
    [seed] and [n_shards]: a checker fed live during the run takes its
    [owner] from it.  Raises [Invalid_argument] when [n_shards] is below 1. *)

type shard_load = {
  sl_shard : int;
  sl_host : int;
  sl_extension_msgs : int;
  sl_approval_msgs : int;
  sl_installed_msgs : int;
  sl_consistency_msgs : int;
  sl_total_msgs : int;
  sl_commits : int;
  sl_consistency_rate : float;  (** consistency messages per virtual second *)
}

type outcome = {
  metrics : Leases.Metrics.t;
      (** cluster-wide aggregate, field-compatible with the single-server
          harness (server counters summed over shards) *)
  per_shard : shard_load array;
  map : Shard_map.t;
  oracle : Oracle.Register_oracle.t;
  store : Vstore.Store.t;
}

val run : setup -> trace:Workload.Trace.t -> outcome
(** Raises [Invalid_argument] before building anything when
    [Leases.Cluster.check] rejects the clients, faults or trace, or when
    there are no shards; {!run_split} makes the same checks before any
    part starts. *)

(** {1 Split deployment} — one self-contained sub-simulation per shard.

    {!run_split} partitions the workload by file ownership and runs shard
    [s] as a complete, isolated simulation: its own engine, clocks,
    network, liveness and partition state, store, WAL, trace buffer and
    profile recorder, with per-shard RNG streams
    pre-split from the master seed in shard order before any domain
    starts.  All [n_clients] client machines exist in every part (an op
    reaches the part owning its file; an idle client contributes
    nothing), with distinct request-id origins so correlation ids stay
    unique in the merged trace.

    The result is deterministic in the seed and independent of [domains]:
    metrics sum, latency histograms fold with {!Stats.Histogram.merge} in
    shard order, and the per-part trace streams are merged by [(timestamp, shard)] and replayed into
    [setup.tracer] after the parts join.

    This is a different cluster model from {!run} — independent network
    fabrics and per-shard fault isolation instead of one shared fabric —
    so its numbers are not comparable to {!run}'s for the same seed;
    compare [run_split ~domains:1] against [run_split ~domains:k]. *)

type part = {
  p_shard : int;
  p_metrics : Leases.Metrics.t;  (** this part alone; [sim_duration] is the shared horizon *)
  p_load : shard_load;
  p_oracle : Oracle.Register_oracle.t;
  p_store : Vstore.Store.t;  (** this shard's slice of the namespace *)
  p_events : Trace.Event.t list;
      (** this part's trace, time-ordered; empty when [setup.tracer] is
          disabled *)
  p_rtt_s : float;
}

type split_outcome = {
  sp_metrics : Leases.Metrics.t;  (** deterministic merge over the parts *)
  sp_per_shard : shard_load array;
  sp_map : Shard_map.t;
  sp_parts : part array;
}

val run_split : ?domains:int -> setup -> trace:Workload.Trace.t -> split_outcome
(** [domains] (default 1) caps the OCaml domains running parts
    concurrently; [min domains n_shards] are used, pulling shard indices
    from a shared counter.  [~domains:1] runs the parts sequentially on
    the calling domain and produces bit-identical results to any other
    domain count. *)
