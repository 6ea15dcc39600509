(** Protocol configuration shared by server and clients.

    The option fields correspond one-to-one to the lease-management choices
    of Section 4; the defaults give the plain on-demand protocol of
    Section 2. *)

type installed = {
  files : Vstore.File_id.t list;  (** the installed-file population *)
  period : Simtime.Time.Span.t;  (** multicast refresh interval *)
  term : Simtime.Time.Span.t;  (** term carried by each refresh; must exceed [period] or coverage lapses between refreshes *)
}

type t = {
  term_policy : Term_policy.t;
  skew_allowance : Simtime.Time.Span.t;  (** the paper's epsilon *)
  batch_extensions : bool;
  (** on a miss, piggyback renewal of every other held lease *)
  anticipatory_renewal : Simtime.Time.Span.t option;
  (** renew this long before expiry even with no read pending *)
  callback_on_write : bool;
  (** [false]: never ask approval, just wait for leases to expire — the
      degenerate scheme the paper attributes to Xerox DFS *)
  approval_multicast : bool;
  (** [true] (default): one multicast carries the approval request to all
      holders, so a shared write costs S messages; [false]: unicast to
      each holder, costing 2(S-1) — the variant behind the paper's
      footnote alpha = R/((S-1)W) *)
  installed : installed option;
  wal_mode : Vstore.Wal.mode;
  term_compensation : (Host.Host_id.t -> Simtime.Time.Span.t) option;
  (** Section 4: "a lease given to a distant client could be increased to
      compensate for the amount the lease term is reduced by the
      propagation delay".  When set, the server adds this per-client span
      to every finite term it grants that client. *)
  lease_sweep_interval : Simtime.Time.Span.t option;
  (** cadence of the server's periodic lease-table sweep, driven from the
      {e server's} clock (reaping decisions always compare a server-local
      expiry against the server's own clock, so drift cannot make a sweep
      reap a record that a grant-path check would still count as live).
      [None] disables the sweep; idle files then hold their expired
      records until the next access touches them. *)
  cache_eviction_grace : Simtime.Time.Span.t option;
  (** how long past local expiry a client keeps a dead cache entry before
      the miss-path eviction pass reclaims it (eviction rides on client
      activity, never on timers, so it cannot extend a run).  An expired
      entry is protocol-inert (it never satisfies a read), so the grace
      only trades memory against re-read version locality; [None] disables
      eviction, restoring grow-forever caches. *)
}

val default : t
(** 10 s fixed term, a 100 ms skew allowance, batching on, no
    anticipatory renewal, callbacks on, no installed optimisation,
    max-term-only recovery record. *)

val with_term : t -> Lease.term -> t
(** Convenience: set [term_policy] to the zero / fixed / infinite policy
    matching the given term. *)

val validate : t -> unit
