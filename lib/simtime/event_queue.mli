(** A priority queue of timestamped events.

    Events with equal timestamps are dequeued in insertion order, which makes
    simulation runs fully deterministic.  Cancellation is an eager O(log n)
    indexed-heap delete: the heap holds exactly the live events, so
    cancel-heavy workloads (anticipatory renewals, retry timers whose reply
    wins the race) neither deepen the sifts for everyone else nor pin
    cancelled payloads.  A slot an entry leaves holds nothing of it, and
    the arrays keep their capacity when the queue empties. *)

type 'a t

type 'a handle
(** Identifies a scheduled event so it can be cancelled.  The handle is the
    heap entry itself — one allocation per push — so holding a handle keeps
    its payload reachable; the queue itself releases the payload the moment
    the event pops or is cancelled. *)

val create : unit -> 'a t

val push : 'a t -> ?daemon:bool -> at:Time.t -> 'a -> 'a handle
(** Schedule an event at the given instant.  [daemon] (default [false])
    marks background maintenance — a daemon event fires normally but does
    not count as pending {e work}, so a consumer draining the queue until
    the work is done ({!Engine.run} without [~until]) stops even while
    daemon events remain. *)

val cancel : _ handle -> unit
(** Cancelling an already-popped or already-cancelled event is a no-op. *)

val cancelled : _ handle -> bool

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event, or [None] if the queue holds
    no live events. *)

val pop_top : 'a t -> 'a handle
(** Like {!pop} but returns the popped entry itself and allocates nothing
    — the engine's per-event fast path, behind an {!is_empty} check.  Read
    it with {!event_at} and {!event_payload}.  Raises [Invalid_argument]
    on an empty queue. *)

val event_at : 'a handle -> Time.t

val event_payload : 'a handle -> 'a

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest live event, without removing it. *)

val next_us : 'a t -> int
(** [Time.to_us] of the earliest live event, or [max_int] when empty —
    the non-allocating form of {!peek_time} for per-event run loops. *)

val top_seq : 'a t -> int
(** The sequence number of the earliest live event, or [max_int] when
    empty: with {!next_us}, the full (at, seq) key of the top. *)

val take_seq : 'a t -> int
(** Take the next sequence number without pushing.  A FIFO kept beside
    the queue numbers its entries from here, at the moment each would
    have been pushed, so merging the two by (at, seq) fires in exactly
    the order one queue holding everything would.  Counts in
    {!total_pushed}. *)

val length : 'a t -> int
(** Number of live (non-cancelled) events.  O(1). *)

val is_empty : 'a t -> bool
(** O(1). *)

val live_nondaemon : 'a t -> int
(** Live events not marked daemon — the queue's pending {e work}.  O(1). *)

val total_pushed : 'a t -> int
(** Lifetime pushes and {!take_seq}s (never reset) — the profiler's
    engine-health series derives per-window push/cancel rates from these.
    O(1). *)

val total_cancelled : 'a t -> int
(** Lifetime cancellations (never reset).  O(1). *)
