(** Per-host physical clocks.

    Leases reason about real time, so each simulated host reads its own
    clock, which may be offset from true (engine) time and may run at a
    different rate.  The paper's fault analysis (Section 5) distinguishes:

    - a {e fast server} clock or {e slow client} clock — unsafe: the server
      may consider a lease expired while the client still trusts it;
    - a {e slow server} clock or {e fast client} clock — safe but wasteful:
      extra extension traffic, writes delayed longer than necessary.

    Both are injectable here via [set_drift] and [step].

    A clock is piecewise linear in engine time:
    [local(t) = base_local + rate * (t - base_engine)], rebased whenever the
    drift changes or the clock is stepped. *)

type t

type timer
(** An outstanding local-deadline timer (see {!schedule_at_local}). *)

val create : Simtime.Engine.t -> ?offset:Simtime.Time.Span.t -> ?drift:float -> unit -> t
(** [drift] is the rate error: the clock advances [1. +. drift] local
    seconds per engine second.  [drift] must be finite and exceed -1. *)

val now : t -> Simtime.Time.t
(** The host's local reading of the current instant. *)

val drift : t -> float

val set_drift : t -> float -> unit
(** Change the rate from the current instant on (the reading is continuous
    across the change); [drift] must be finite and exceed -1.  Outstanding
    local timers are re-scheduled against the new rate. *)

val step : t -> Simtime.Time.Span.t -> unit
(** Jump the local reading discontinuously.  Outstanding local timers are
    re-scheduled against the stepped reading. *)

val engine_time_of_local : t -> Simtime.Time.t -> Simtime.Time.t
(** The engine instant at which this clock will read the given local time,
    under the {e current} rate.  Readings already in the local past map to
    the current engine instant. *)

val schedule_at_local : t -> ?daemon:bool -> Simtime.Time.t -> (unit -> unit) -> timer
(** Schedule a callback for when this clock reads the given local time.
    [daemon] (default [false]) marks the timer's engine events as
    background maintenance (see {!Simtime.Engine.schedule_at}).

    Drift-faithful: the callback runs at the engine instant at which the
    clock {e actually} reads the deadline, tracking any [set_drift] or
    [step] applied after arming — the timer is re-scheduled on every rate
    change, and the deadline is re-checked against the local clock on fire
    (re-arming if the clock slowed or stepped back since arming).  A
    deadline already in the local past fires immediately.  Host timers in
    this simulator model an OS timer wheel driven by the host's own clock
    hardware, so they must follow that clock through faults; the seed
    implementation converted once at arming, which let a server whose
    clock slowed mid-wait commit a write while covering leases were still
    live on its own clock. *)

val cancel_timer : timer -> unit
(** Idempotent; a fired timer is already cancelled. *)

val pending_local_timers : t -> int
(** Number of armed (not yet fired or cancelled) local timers. *)
