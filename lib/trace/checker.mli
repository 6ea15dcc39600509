(** Trace-driven invariant checker.

    Judges each event of a stream, one at a time, against the lease state
    the events before it imply ({!Lease_state}), and asserts the paper's
    two safety conditions independently of the in-simulator oracle.  Feed
    it live through {!sink} (tee'd next to the run's tracer) or replay a
    buffered or decoded stream with {!check}; both paths run {!feed}, so
    they give equal reports.  A clean commit costs the file's holders, and
    like a [Lease_grant] or [Client_lease] on a key the fold already
    holds, a [Lease_expire] or a [Lease_release], it allocates nothing.

    - {b local-read-validity}: a cache hit must be backed by a lease the
      client recorded, matching version, unexpired on the {e client's}
      clock.  Checked exactly — the comparison mirrors the client's own
      hit test, so any disagreement is a real instrumentation or logic bug.
    - {b commit-vs-lease}: at a commit, every lease on the file held by a
      non-writer must have expired at the {e server's} clock (or have been
      released by approval), and any installed-file coverage horizon must
      have passed.  Compared with a 10 µs epsilon: expiry timers are
      scheduled by converting a server-local deadline to engine time, and
      that conversion rounds to the microsecond grid, so a timer can fire
      with the server clock a fraction of a microsecond shy of the
      deadline.  Genuine clock-fault violations are orders of magnitude
      larger.
    - {b stale-hit}: a cache hit must return the latest committed version.
      This is the observable consequence the first two conditions exist to
      prevent, and the one that fires when a fast server clock lets a
      commit overlap a client's still-trusted lease. *)

type violation = { at : float;  (** engine time *) invariant : string; detail : string }

type report = {
  events : int;
  checked_hits : int;
  checked_commits : int;
  violations : violation list;
      (** in stream order; the holders one commit overlaps are flagged in
          ascending holder order, then its installed coverage *)
}

type t
(** A checker part-way through a stream. *)

val create : ?servers:int list -> ?owner:(int -> int) -> unit -> t
(** [servers] (every server host; default [[0]]) and [owner] (file id ->
    owning server host; default host 0) are {!Lease_state.create}'s: a
    server crash ends only the leases and installed coverage of the files
    that server owns, while the other shards' state survives.  The id
    limits are the fold's ({!feed} raises [Invalid_argument] beyond them). *)

val feed : t -> Event.t -> unit

val sink : t -> Sink.t
(** A live sink feeding the checker. *)

val report : t -> report
(** The verdict over every event fed so far; the checker may be fed
    further afterwards. *)

val check : ?servers:int list -> ?owner:(int -> int) -> Event.t list -> report
(** [check events] is {!feed} folded over [events] from {!create}, then
    {!report}. *)

val ok : report -> bool
val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit

val epsilon_s : float
(** Slack used by the commit-vs-lease comparison (10 µs). *)
