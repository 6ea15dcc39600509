(** The one cluster harness every run function is built on.

    A run {!check}s its inputs, builds a {!fabric}, puts the protocol's
    servers and clients on it, {!schedule_faults}, {!drive}s the workload,
    {!run}s to the horizon and assembles {!metrics}.  The run functions of
    [Sim], [Shard.Deploy], the baselines and [Wlease.Wsim] differ only in
    the servers and clients they build and the counters they report. *)

(** {1 Faults} *)

module Faults : sig
  type fault =
    | Crash_client of { client : int; at : Simtime.Time.t; duration : Simtime.Time.Span.t }
    | Crash_server of { at : Simtime.Time.t; duration : Simtime.Time.Span.t }
        (** crash shard 0's server *)
    | Crash_shard of { shard : int; at : Simtime.Time.t; duration : Simtime.Time.Span.t }
        (** crash the server owning the given shard (index taken modulo the
            shard count, so a single-server world treats every index as its
            one server) *)
    | Partition_clients of { clients : int list; at : Simtime.Time.t; duration : Simtime.Time.Span.t }
        (** cut the listed clients off from the rest (server included) *)
    | Client_drift of { client : int; at : Simtime.Time.t; drift : float }
    | Server_drift of { shard : int; at : Simtime.Time.t; drift : float }
        (** drift the clock of the server owning shard [shard] (same
            resolution as {!Crash_shard}).  The spec grammar's two-argument
            form ([server-drift=AT,RATE]) parses as shard 0, so pre-sharding
            schedules replay unchanged. *)
    | Client_step of { client : int; at : Simtime.Time.t; step : Simtime.Time.Span.t }
    | Server_step of { shard : int; at : Simtime.Time.t; step : Simtime.Time.Span.t }
        (** step the owning server's clock; same shard resolution and
            two-argument default as {!Server_drift} *)

  val fault_to_spec : fault -> string
  (** The [--fault] command-line form of a fault
      (e.g. ["server-drift=40,-0.5"]), as accepted by [leases-sim] and
      printed by the campaign harness's shrunk reproducers. *)

  val fault_of_spec : string -> (fault, string) result
  (** Inverse of {!fault_to_spec}; round-trips every fault (times carry
      microsecond precision).  Client and shard indices must be
      non-negative integers, times, durations and steps' instants
      non-negative and finite, and drift rates and step sizes finite. *)
end
(** The fault vocabulary every harness shares; [Sim] re-exports it. *)

include module type of struct
  include Faults
end

val check : who:string -> n_clients:int -> fault list -> Workload.Trace.t -> unit
(** Raises [Invalid_argument], prefixed by [who], for no clients, a trace
    op by a client outside [0, n_clients), or a fault naming such a client,
    a negative shard, a negative instant, a negative duration or a drift
    rate that is not finite and above -1 (the message carries the fault's
    spec).  Run functions call it first. *)

(** {1 Fabric} *)

type 'p fabric = {
  engine : Simtime.Engine.t;
  liveness : Host.Liveness.t;
  partition : Netsim.Partition.t;
  rng : Prng.Splitmix.t;
      (** what is left of the run's stream after the network's split;
          protocols split their per-client streams from it *)
  net : 'p Netsim.Net.t;
  tracer : Trace.Sink.t;
      (** the sink every layer emits into: the caller's, bracketed into
          the [trace/emit] center when the profiler is on *)
  profiler : Profile.Recorder.t;
}

val fabric :
  ?tracer:Trace.Sink.t ->
  ?profiler:Profile.Recorder.t ->
  ?classify:('p -> Trace.Event.msg_kind * int) ->
  rng:Prng.Splitmix.t ->
  loss:float ->
  m_prop:Simtime.Time.Span.t ->
  m_proc:Simtime.Time.Span.t ->
  unit ->
  'p fabric
(** A fresh engine with [profiler] and the (bracketed) [tracer] installed,
    host liveness, a partition table and a network whose loss stream is
    split from [rng].  Defaults: no tracing, no profiling. *)

(** {1 Fault scheduling} *)

type hosts = {
  client : int -> Host.Host_id.t * Clock.t option;
      (** a client index's host, and its clock when the protocol has one *)
  server : int -> (Host.Host_id.t * Clock.t option) option;
      (** the server host (and clock) this world runs for a shard index;
          [None] when another world owns the shard *)
  trace_clients : bool;
      (** whether this world emits the trace events of client-level
          faults (a split deployment emits them from one part only) *)
}

val server_host : Host.Host_id.t
val client_host : int -> Host.Host_id.t
(** The single-server layout of [Sim.run], the baselines and
    [Wlease.Wsim]: the server is host 0, client [i] is host [i + 1] (the
    one-shard case of [Shard.Deploy]'s layout). *)

val one_server : ?clocks:Clock.t * (int -> Clock.t) -> unit -> hosts
(** The resolver of a world in that layout: every shard index names the
    one server; [clocks] are the server's and each client's, when the
    protocol has them. *)

val schedule_faults : _ fabric -> hosts -> fault list -> unit
(** Schedules every fault on the fabric's engine.  [Crash_server] is shard
    0; clock faults on a host without a clock are ignored.  Crashes,
    recoveries and clock faults are traced at the instant they apply;
    partitions are not.  Expects faults {!check} accepted. *)

(** {1 Issuing the workload} *)

type tally = {
  oracle : Oracle.Register_oracle.t;
  engine : Simtime.Engine.t;
  mutable ops_issued : int;
  mutable temp_ops : int;
  read_latency : Stats.Histogram.t;
      (** seconds, one sample per completed read; live during the run *)
  write_latency : Stats.Histogram.t;
}

val drive :
  _ fabric ->
  oracle:Oracle.Register_oracle.t ->
  read:(tally -> client:int -> Vstore.File_id.t -> start:Simtime.Time.t -> unit) ->
  write:(tally -> client:int -> Vstore.File_id.t -> start:Simtime.Time.t -> unit) ->
  Workload.Trace.t ->
  tally
(** Issues the trace's ops lazily: each op's event issues it, marking the
    profiler's [client/op] center, and schedules the next; one closure
    serves every op.  A temporary op is only counted; others go to [read]
    or [write] with their client, file and arrival, and their completion
    calls {!read_done} (or {!dirty_read_done}) or {!write_done}. *)

val read_done :
  tally -> file:Vstore.File_id.t -> start:Simtime.Time.t -> Vstore.Version.t ->
  Simtime.Time.Span.t -> unit
(** A read of [file] issued at [start] completed with this version and
    latency: counted, added to the latency histogram and checked by the
    oracle over [start, now]. *)

val dirty_read_done : tally -> Simtime.Time.Span.t -> unit
(** A read served from the client's own unflushed writes: counted and
    timed, but there is no committed version for the oracle to check. *)

val write_done : tally -> Simtime.Time.Span.t -> unit

(** {1 Running and metrics} *)

val horizon : Workload.Trace.t -> drain:Simtime.Time.Span.t -> Simtime.Time.t
(** The trace's duration plus the drain. *)

val run : _ fabric -> until:Simtime.Time.t -> unit
(** Runs the engine to [until] with the profiler started, then flushes the
    tracer. *)

val metrics :
  ?write_over_rtt:bool -> _ fabric -> tally -> (Metrics.t -> Metrics.t) -> Metrics.t
(** The tally, the network's counters and the oracle's verdict; the
    protocol function sets its own counters (zero until it does); {!derive}
    computes the rest.  With [write_over_rtt] (default) the added write
    delay is measured beyond one unicast RPC, else it is the whole mean
    write latency (write-back leases, where a held lease costs nothing). *)

val derive : rtt_s:float -> Metrics.t -> Metrics.t
(** Recomputes hit ratio, consistency message rate, mean read delay, mean
    added write delay (mean write latency less [rtt_s], floored at 0) and
    mean op delay from the raw counts and histograms. *)
