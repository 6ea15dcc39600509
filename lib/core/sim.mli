(** The lease protocol's harness.  A lease {!world} is a {!Cluster} fabric
    carrying lease servers and clients; {!run} is the one-server world,
    [Shard.Deploy.run] the K-server one and [Shard.Deploy.run_split] one
    one-server world per shard.  The consistency oracle always observes.

    Host layout: the server is host 0; client index [i] is host [i + 1]
    (the one-shard case of [Shard.Deploy]'s layout). *)

(** The fault vocabulary of every harness ({!Cluster.Faults}): [Crash_shard]
    and the server clock faults name a shard, which here is always the one
    server. *)
include module type of struct
  include Cluster.Faults
end

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
  on_instruments : instruments -> unit;
  (** called once per run, after the cluster is built and the workload and
      faults are scheduled but before the engine starts — the hook a
      telemetry sampler uses to attach itself.  Default [ignore]. *)
}

and instruments = {
  i_engine : Simtime.Engine.t;
  i_net : Messages.payload Netsim.Net.t;
  i_server : Server.t;
  i_clients : Client.t array;
  i_server_clock : Clock.t;
  i_client_clocks : Clock.t array;
  i_read_latency : Stats.Histogram.t;
      (** the driver's read-latency histogram, live while the run executes *)
  i_write_latency : Stats.Histogram.t;
}
(** Read-only handles on every layer of a running cluster.  Consumers must
    not mutate protocol state; sampling through {!Server.snapshot},
    counter registries and clock readings is the intended use. *)

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

type world = {
  fabric : Messages.payload Cluster.fabric;
  servers : Server.t array;
  clients : Client.t array;
  store : Vstore.Store.t;  (** shared by the servers; their file sets are disjoint *)
  oracle : Oracle.Register_oracle.t;
}

val world :
  setup ->
  rng:Prng.Splitmix.t ->
  servers:(Host.Host_id.t * Config.t) array ->
  client_host:(int -> Host.Host_id.t) ->
  ?route:(Vstore.File_id.t -> Host.Host_id.t) ->
  ?req_origin:(Host.Host_id.t -> int) ->
  unit ->
  world
(** A fabric with the setup's tracer, profiler, loss and message times
    (its network stream split from [rng]); the [servers] in order, each
    with its own clock and WAL over one shared store; then client [i] at
    [client_host i] with its own clock and an RNG stream split from [rng],
    sending to the first server unless [route] names a file's owner, its
    request ids starting at [req_origin host] when given.  Ignores
    [setup.seed], [faults], [drain] and [on_instruments]. *)

val schedule_faults :
  world -> server_of_shard:(int -> int option) -> trace_clients:bool -> fault list -> unit
(** {!Cluster.schedule_faults} with each client at its host and clock and
    shard [s] at [servers.(i)] when [server_of_shard s = Some i]. *)

val drive :
  ?on_read:(Workload.Op.t -> Client.read_result -> unit) ->
  ?on_write:(Workload.Op.t -> Client.write_result -> unit) ->
  world ->
  Workload.Op.t list ->
  Cluster.tally
(** {!Cluster.drive} through the world's clients; [on_read] and [on_write]
    also see each completion. *)

val metrics : world -> Cluster.tally -> Metrics.t
(** {!Cluster.metrics} with client counters summed over the clients and
    server counters over the servers. *)
