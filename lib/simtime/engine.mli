(** The discrete-event simulation engine.

    The engine owns the virtual clock, a heap of pending callbacks and any
    number of FIFO {!lane}s.  All simulated activity — message deliveries,
    lease expirations, workload arrivals, crash/recover events — is
    expressed as events at absolute instants.  Running the engine advances
    virtual time from event to event; between events, no time passes.

    The heap takes any instant and any callback, and returns a handle that
    cancels it: timers go there.  A lane takes entries in time order only,
    fires each through the one handler it was created with, and cannot
    cancel: it is for streams nobody cancels that already arrive in order,
    such as message deliveries over a uniform delay and a time-sorted
    trace's op arrivals.  A lane entry costs no handle and no closure.

    Determinism: every event, heap or lane, takes its sequence number from
    one counter at the moment it is scheduled, and events fire in (instant,
    sequence) order.  So callbacks scheduled for the same instant run in
    the order they were scheduled, and moving a stream onto a lane changes
    no event's place in the order. *)

type t

type handle = (unit -> unit) Event_queue.handle

val create : unit -> t

val now : t -> Time.t
(** Current virtual time.  Inside a callback, this is the instant the
    callback was scheduled for. *)

val schedule_at : t -> ?daemon:bool -> Time.t -> (unit -> unit) -> handle
(** Schedule a callback at an absolute instant.  Scheduling in the past
    raises [Invalid_argument].  [daemon] (default [false]) marks background
    maintenance: the callback fires normally while real work remains ahead
    of it, but an unbounded {!run} never stays alive for daemon events
    alone. *)

val schedule_after : t -> ?daemon:bool -> Time.span -> (unit -> unit) -> handle
(** Schedule a callback after a delay from [now].  Negative delays raise
    [Invalid_argument]. *)

val cancel : handle -> unit

(** {2 Lanes} *)

type 'a lane
(** A FIFO of (instant, sequence, item) entries on one engine. *)

val lane : t -> ('a lane -> 'a -> unit) -> 'a lane
(** [lane t fire] adds an empty lane to [t] for [t]'s lifetime.  Each
    entry fires, in its turn among all of [t]'s events, as
    [fire lane item]: the handler gets its own lane so it can push the
    next entry. *)

val lane_push : 'a lane -> Time.t -> 'a -> unit
(** Schedule [item] at an instant.  Raises [Invalid_argument] when the
    instant is before {!now} or before the instant last pushed on this
    lane.  The fired slot is cleared, so the lane does not keep a fired
    item reachable. *)

val run : ?until:Time.t -> t -> unit
(** Run events in timestamp order until no non-daemon event is pending, or
    until the first event strictly after [until] (which remains queued).
    A bounded run executes daemon events up to the limit like any other
    event; an unbounded run executes them only while real work remains
    scheduled at or after them.  Lane entries are never daemon. *)

val step : t -> bool
(** Run the single earliest event, heap or lane.  Returns [false] if none
    was pending. *)

val pending : t -> int
(** Number of live scheduled events: the heap's plus every lane's
    entries. *)

val set_tracer : t -> Trace.Sink.t -> unit
(** Attach a trace sink.  While the sink is enabled the engine emits a
    [Heartbeat] event ({!pending}) at most once per second of simulated
    time, piggybacked on event execution — the tracer never schedules
    events itself, so it cannot keep a run alive or perturb the
    schedule. *)

val tracer : t -> Trace.Sink.t
(** The attached sink ({!Trace.Sink.null} when none). *)

val set_profiler : t -> Profile.Recorder.t -> unit
(** Attach a cost-center recorder.  While enabled, {!step} wraps its single
    dispatch site in [event_begin]/[event_end], attributing each callback's
    wall time and allocation to the cost center the callback marks (see
    {!Profile.Recorder.mark}) and sampling engine health (queue depth,
    cancel ratio, events per sim-second; lane entries count as queued and
    pushed) on the recorder's cadence.
    Disabled ({!Profile.Recorder.null}, the default), the dispatch
    overhead is one load and one branch — the same guard shape as the
    trace sink. *)

val profiler : t -> Profile.Recorder.t
(** The attached recorder ({!Profile.Recorder.null} when none) — probe
    points in subsystem callbacks fetch it to refine the open event. *)
