(** The lease protocol's harness.  A lease {!world} is a {!Cluster} fabric
    carrying lease servers and clients, built and run by {!run_world}:
    {!run} is the one-server world, [Shard.Deploy.run] the one- or
    K-server one and [Shard.Deploy.run_split] one one-server world per
    shard.  The consistency oracle always observes.

    Host layout: the server is host 0; client index [i] is host [i + 1]
    (the one-shard case of [Shard.Deploy]'s layout). *)

(** The fault vocabulary of every harness ({!Cluster.Faults}): [Crash_shard]
    and the server clock faults name a shard, which here is always the one
    server. *)
include module type of struct
  include Cluster.Faults
end

type world = {
  fabric : Messages.payload Cluster.fabric;
  servers : Server.t array;
  route : Vstore.File_id.t -> int;
      (** the index in [servers] of the server owning a file: clients send
          its operations there *)
  clients : Client.t array;
  store : Vstore.Store.t;  (** shared by the servers; their file sets are disjoint *)
  oracle : Oracle.Register_oracle.t;
  mutable on_read : Vstore.File_id.t -> Client.read_result -> unit;
  mutable on_write : Vstore.File_id.t -> Client.write_result -> unit;
      (** completion listeners: {!Cluster.drive} calls them with the op's
          file on each completion, after the tally has counted it.  They do
          nothing until an observer sets them (the telemetry sampler of a
          K-server world does). *)
}
(** A lease world: a {!Cluster} fabric carrying lease servers and clients.
    Observers read it; they must not mutate protocol state. *)

type setup = {
  seed : int64;
  n_clients : int;
  config : Config.t;
  m_prop : Simtime.Time.Span.t;
  m_proc : Simtime.Time.Span.t;
  loss : float;  (** per-delivery drop probability *)
  faults : fault list;
  drain : Simtime.Time.Span.t;
  (** how long past the last trace operation to keep the cluster running so
      in-flight work settles *)
  tracer : Trace.Sink.t;
  (** receives the protocol event stream from every layer (engine, net,
      server, clients, fault injector); {!Trace.Sink.null} — the default —
      compiles the instrumentation down to a guarded no-op *)
  profiler : Profile.Recorder.t;
  (** cost-center recorder installed on the engine for the run; started
      just before the event loop and stopped when it drains.  When enabled
      alongside tracing, sink pushes are bracketed so emission cost lands
      in the [trace/emit] center.  {!Profile.Recorder.null} — the default —
      keeps the dispatch loop on its one-branch fast path. *)
  on_instruments : world -> Cluster.tally -> unit;
  (** called once per run with the world and the op driver's tally, after
      the faults and the first op are scheduled but before the engine
      starts: the hook a telemetry sampler attaches through.  The default
      does nothing. *)
}
(** The setup of every single-server run.  The Section 6 baselines
    ([Baselines.Callback], [Baselines.Ttl_hints]) and the write-back
    leases ([Wlease.Wsim]) run from it too: they pass its tracer and
    profiler to their fabric, read nothing from [config] but the term
    (the TTL, the write lease's term), and never call [on_instruments],
    because they build no lease world. *)

val default_setup : setup
(** Seed 1, one client, {!Config.default}, the V LAN message times
    (m_prop 0.5 ms, m_proc 1 ms), no loss, no faults, 120 s drain, no
    tracing. *)

type outcome = {
  metrics : Metrics.t;
  oracle : Oracle.Register_oracle.t;
  store : Vstore.Store.t;
}

val run : setup -> trace:Workload.Trace.t -> outcome
(** Raises [Invalid_argument] before building anything when
    {!Cluster.check} rejects the setup's clients, faults or trace. *)

(** {1 Lease worlds} *)

val run_world :
  setup ->
  rng:Prng.Splitmix.t ->
  servers:(Host.Host_id.t * Config.t) array ->
  client_host:(int -> Host.Host_id.t) ->
  ?route:(Vstore.File_id.t -> int) ->
  ?req_origin:(Host.Host_id.t -> int) ->
  server_of_shard:(int -> int option) ->
  trace_clients:bool ->
  until:Simtime.Time.t ->
  Workload.Trace.t ->
  world * Metrics.t
(** Build a lease world, run it to [until] and assemble its metrics.  The
    fabric carries the setup's tracer, profiler,
    loss and message times (its network stream split from [rng]); the
    [servers] come in order, each with its own clock and WAL over one
    shared store; then client [i] sits at [client_host i] with its own
    clock and an RNG stream split from [rng], sending each file's
    operations to the server at index [route file] (default: the first
    server), its request ids starting at [req_origin host] when given.
    The setup's faults go to {!Cluster.schedule_faults}, with each client
    at its host and clock and shard [s] at [servers.(i)] when
    [server_of_shard s = Some i] (client faults traced only when
    [trace_clients]).  The trace's ops are issued through
    {!Cluster.drive}, and the world's [on_read] and [on_write] also see
    each completion.
    [setup.on_instruments] then gets the world and the driver's tally
    before the engine starts.  Client counters in the metrics are summed
    over the clients and server counters over the servers.  Ignores
    [setup.seed] and [drain]. *)
