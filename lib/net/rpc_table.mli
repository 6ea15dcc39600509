(** A client's outstanding RPCs, each re-sent verbatim with a backoff until
    it is answered or the client crashes.

    ['k] is what the client keeps about a call (typically its
    continuation), ['m] the request message.  The lease client, the
    Section 6 baselines' cache client and the write-back lease client all
    retransmit through this one loop; they differ only in the backoff
    they give {!create}. *)

type ('k, 'm) call = private {
  req : int;
  started : Simtime.Time.t;  (** engine time of the first send *)
  kind : 'k;
  dst : Host.Host_id.t;  (** where the call is sent, fixed for its lifetime *)
  message : 'm;  (** re-sent verbatim *)
  mutable tries : int;  (** retransmissions so far; drives the backoff *)
  mutable timer : Simtime.Engine.handle option;
}

type ('k, 'm) t

val retry_interval : Simtime.Time.Span.t
(** 1 s: how long a call waits before its first re-send, and how often
    an approval round ({!Leases.Approval}) re-asks its silent holders. *)

val create :
  net:'m Net.t ->
  host:Host.Host_id.t ->
  ?req_origin:int ->
  retry_max:Simtime.Time.Span.t ->
  ?jitter:Prng.Splitmix.t ->
  retransmissions:Stats.Counter.t ->
  unit ->
  ('k, 'm) t
(** Calls are sent from [host] over [net] and timed on its engine.  After
    k re-sends, a call waits [retry_interval * 2^k] capped at [retry_max]
    before the next; with [jitter] that wait is scaled by a uniform factor
    in [0.5, 1.5), one draw per wait, so clients whose calls all failed at
    the same instant (a server crash) do not retry in lockstep forever.
    [retry_max = retry_interval] without [jitter] is a fixed interval.
    Each retransmission bumps [retransmissions].

    Request ids count up from [req_origin] (default [host lsl 32]: the
    host index in the high bits, a per-host sequence in the low 32, so an
    id doubles as the operation's correlation id in a trace and never
    collides across hosts). *)

val net : ('k, 'm) t -> 'm Net.t
val host : ('k, 'm) t -> Host.Host_id.t
(** What {!create} was given, so that a client keeps no copies of its own. *)

val fresh_req : ('k, 'm) t -> int
(** The next request id. *)

val start : ('k, 'm) t -> req:int -> dst:Host.Host_id.t -> 'k -> 'm -> unit
(** Send the request to [dst], then arm its retransmission timer. *)

val find : ('k, 'm) t -> int -> ('k, 'm) call option
(** The outstanding call with this id, if it is still unanswered. *)

val finish : ('k, 'm) t -> int -> unit
(** Stop retransmitting the call with this id, if it is outstanding, and
    forget it. *)

val cancel_all : ('k, 'm) t -> unit
(** Forget every outstanding call, as a crash does.  Request ids keep
    counting up. *)

val length : ('k, 'm) t -> int
(** Calls outstanding (retransmission timers armed). *)
