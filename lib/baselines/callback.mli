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

type server

val create_server : Rpc_cache.payload Leases.Cluster.fabric -> Vstore.Store.t -> server
(** The callback server over [store], registered at
    [Leases.Cluster.server_host] on the fabric: what {!run} builds.  Its
    break rounds are {!Leases.Approval}'s, with a 3 s give-up. *)

val run :
  ?poll_period:Simtime.Time.Span.t ->
  Leases.Sim.setup ->
  trace:Workload.Trace.t ->
  Leases.Sim.outcome
(** Runs the setup's clients against one callback server, each client
    revalidating its cache every [poll_period] (default 600 s, Andrew's
    ten minutes).  Callback promises are traced as infinite-term leases,
    and a break abandoned by the give-up timer deliberately emits no
    release: the invariant checker then exhibits the stale window.  The
    setup's [config] is not read.  Raises [Invalid_argument] before
    building anything for a [poll_period] that is not positive, or when
    [Leases.Cluster.check] rejects the setup.

    The returned metrics reuse the lease metric record: break traffic is
    reported in the [approval] category and fetch/revalidation traffic in
    [extension]. *)
