(** TTL-based caching of hints — the DNS / NFS attribute-cache approach
    (Section 6).

    The server attaches a time-to-live to every datum it returns and
    clients serve reads from cache until the TTL runs out — but, unlike a
    lease, the TTL is {e not a promise}: the server neither blocks nor
    notifies on writes, so data "may be modified during that interval" and
    any read within the TTL after a write is stale.  The oracle quantifies
    exactly that: staleness bounded by the TTL, traded against extension
    traffic identical in shape to a lease of the same length.

    Writes are still write-through (so the paper's comparison isolates the
    read-consistency mechanism).

    Only the server lives here: the clients are {!Rpc_cache}'s, keeping a
    fetched version for the TTL and a written one not at all. *)

val run : Leases.Sim.setup -> trace:Workload.Trace.t -> Leases.Sim.outcome
(** Runs the setup's clients against one TTL server whose TTL is the
    config's term: zero or fixed.  Hints appear in the trace as
    client-side leases with a TTL horizon but no server-side grant, so the
    checker's stale-hit invariant exposes reads served inside the TTL
    window after a write.  Nothing else in the config is read.  Raises
    [Invalid_argument] before building anything for an infinite or
    adaptive term, or when [Leases.Cluster.check] rejects the setup. *)
