(** Callback-based consistency — the revised Andrew file system
    (Section 6).

    The server promises to notify ("break a callback") every cache holding
    a file before the file changes; holders cache without any time bound —
    effectively an infinite-term lease.  The crucial difference from leases
    is what happens when a holder is unreachable: {e the server gives up
    after a transport-level timeout (3 s) and lets the write proceed},
    possibly leaving the unreachable client operating on stale data.  The
    client only learns of the problem when it next talks to the server; a
    periodic revalidation poll (Andrew used ten minutes) bounds how long
    the stale window can last.

    Only the server lives here: the clients are {!Rpc_cache}'s, kept
    forever by every fetch and write reply this server sends, and polling
    every [poll_period].

    This baseline exists to demonstrate exactly that failure: under a
    partition the oracle records stale reads for callbacks where leases
    record none. *)

type setup = {
  seed : int64;
  n_clients : int;
  m_prop : Simtime.Time.Span.t;
  m_proc : Simtime.Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Simtime.Time.Span.t;
  poll_period : Simtime.Time.Span.t;
  (** client revalidation interval (Andrew: 10 minutes) *)
  tracer : Trace.Sink.t;
  (** protocol event sink; callback promises are traced as infinite-term
      leases, and a break abandoned by the give-up timer deliberately emits
      no release — the invariant checker then exhibits the stale window *)
}

val default_setup : setup
(** V LAN message times, 600 s poll period. *)

val run : setup -> trace:Workload.Trace.t -> Leases.Sim.outcome
(** The returned metrics reuse the lease metric record: break traffic is
    reported in the [approval] category and fetch/revalidation traffic in
    [extension]. *)
