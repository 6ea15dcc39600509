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

type setup = {
  seed : int64;
  n_clients : int;
  term : Simtime.Time.Span.t;
  m_prop : Simtime.Time.Span.t;
  m_proc : Simtime.Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Simtime.Time.Span.t;
}

val default_setup : setup
(** One client, 10 s term, V LAN message times, no faults, 120 s drain. *)

type outcome = {
  metrics : Leases.Metrics.t;
  oracle : Oracle.Register_oracle.t;
  store : Vstore.Store.t;
  dirty_reads : int;  (** reads served from a local unflushed buffer *)
  writes_lost : int;  (** buffered writes discarded by crash or stale flush *)
  flushes_accepted : int;
  flushes_rejected : int;
}

val run : setup -> trace:Workload.Trace.t -> outcome
