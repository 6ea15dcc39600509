(** Lease lifecycles and write waits, recorded as a stream is folded.

    A view over {!Lease_state}: it records each lease the fold starts, in
    grant order, with the renewals that extended it and the end the fold
    reports, and keeps each write wait the fold opens, in begin order —
    surfacing starvation and the anti-starvation rule firing directly from
    a trace, with no access to simulator internals. *)

type lease = {
  file : int;
  holder : int;
  granted_at : float;  (** engine time of the initial grant *)
  mutable renewals : int;
  mutable last_expiry : float option;  (** latest server-local expiry; [None] = never *)
  mutable ended : (Lease_state.end_cause * float) option;
      (** how and at what engine time it ended; [None] while live *)
}

type t

val create : ?servers:int list -> ?owner:(int -> int) -> ?keep:int -> unit -> t
(** [servers] and [owner] are {!Lease_state.create}'s: a server crash ends
    only its own files' leases and waits.  [keep] (default: all) bounds the
    leases recorded: the first [keep] in grant order are, and the rest are
    only counted, so a view that prints a few rows holds only those.
    Raises [Invalid_argument] on a negative [keep]. *)

val feed : t -> Event.t -> unit
(** Events must come in stream (engine) order. *)

val sink : t -> Sink.t

val leases : t -> lease list
(** The recorded leases, in grant order. *)

val started : t -> int
(** Every lease the stream started, recorded or not. *)

val waits : t -> Lease_state.wait list
(** In begin order: the fold's own records. *)

val commits : t -> int

val lease_end : t -> lease -> float
(** When a lease ended, or the last event's timestamp for a live one. *)

val last_at : t -> float
