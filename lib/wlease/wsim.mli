(** Simulation harness for the write-back lease protocol.

    Same shape as {!Leases.Sim}: one server, N clients, a trace, optional
    faults, the oracle watching.  Reads served from a client's own
    unflushed buffer are excluded from the oracle's atomicity check — they
    observe the client's private future, which is trivially consistent
    program-locally and has no committed version to compare against; every
    clean read is checked as usual.

    The returned metrics reuse {!Leases.Metrics} with this mapping:
    extension = acquire traffic, approval = recall traffic,
    write-transfer = flush traffic; [mean_write_delay_added] is the mean
    write latency itself (a write with a held lease costs zero). *)

type outcome = {
  metrics : Leases.Metrics.t;
  oracle : Oracle.Register_oracle.t;
  store : Vstore.Store.t;
  dirty_reads : int;  (** reads served from a local unflushed buffer *)
  writes_lost : int;  (** buffered writes discarded by crash or stale flush *)
  flushes_accepted : int;
  flushes_rejected : int;
}

val run : Leases.Sim.setup -> trace:Workload.Trace.t -> outcome
(** Runs the setup's clients against one write-back server whose write
    lease term is the config's fixed term; nothing else in the config is
    read.  The fabric carries the setup's tracer and profiler, so the
    trace holds network and fault events; the write-back server and
    clients trace nothing of their own yet.  Raises [Invalid_argument]
    before building anything for a zero, infinite or adaptive term, or
    when [Leases.Cluster.check] rejects the setup. *)
