(** A client's outstanding RPCs, each re-sent verbatim at a fixed interval
    until it is answered or the client crashes.

    ['k] is what the client keeps about a call (typically its
    continuation), ['m] the request message.  The Section 6 baselines'
    cache client and the write-back lease client share this loop; the core
    lease client backs off exponentially with jitter instead. *)

type 'k call = {
  req : int;
  started : Simtime.Time.t;  (** engine time of the first send *)
  kind : 'k;
}

type ('k, 'm) t

val create :
  Simtime.Engine.t ->
  every:Simtime.Time.Span.t ->
  send:('m -> unit) ->
  retransmissions:Stats.Counter.t ->
  ('k, 'm) t
(** [send] puts a request on the wire; it is called once by {!start} and
    again, counted in [retransmissions], each [every] after. *)

val fresh_req : ('k, 'm) t -> int
(** The next request id: 0, 1, 2, ... *)

val start : ('k, 'm) t -> req:int -> 'k -> 'm -> unit
(** Send the request and arm its retransmission timer. *)

val find : ('k, 'm) t -> int -> 'k call option
(** The outstanding call with this id, if it is still unanswered. *)

val finish : ('k, 'm) t -> int -> unit
(** Stop retransmitting the call with this id and forget it. *)

val cancel_all : ('k, 'm) t -> unit
(** Forget every outstanding call, as a crash does.  Request ids keep
    counting up. *)
