(** The simulated datagram network.

    Timing follows the paper's cost model (Table 1): a message put on the
    wire at instant [t] is handed to the recipient at
    [t + m_proc + m_prop + m_proc] — one processing interval at the sender,
    propagation, one at the receiver.  A unicast request/response therefore
    costs [2*m_prop + 4*m_proc], the figure the paper uses for an RPC.

    Multicast is "best effort, sent once": the sender pays one [m_proc]
    regardless of group size; each recipient is an independent delivery
    subject to loss, partition and liveness, mirroring the V-system
    multicast facility the paper relies on.

    Failure semantics: a message is silently dropped when it is lost (with
    probability [loss]), when sender and recipient are in different
    partition groups, or when either end is crashed.  Loss, liveness and
    partition are all evaluated at {e delivery} time (a host that crashes
    while a message is in flight never sees it, and a loss-drop trace
    carries the instant the message would have arrived); only the sender's
    own liveness is checked at send time.

    Scheduling: every message takes the same {!transit}, so deliveries
    become due in the order they were sent.  Each net therefore queues its
    deliveries on one {!Simtime.Engine.lane} rather than the engine's
    heap: a delivery allocates only its envelope, built at the send and
    handed to the recipient's handler, and fires in exactly the (instant,
    sequence) order a heap event scheduled at the send would.  A delivery
    with any other delay would break the lane's order and must be
    scheduled on the heap. *)

type 'a envelope = { src : Host.Host_id.t; dst : Host.Host_id.t; payload : 'a }

type 'a t

val create :
  Simtime.Engine.t ->
  ?liveness:Host.Liveness.t ->
  ?partition:Partition.t ->
  ?rng:Prng.Splitmix.t ->
  ?loss:float ->
  ?tracer:Trace.Sink.t ->
  ?classify:('a -> Trace.Event.msg_kind * int) ->
  prop_delay:Simtime.Time.Span.t ->
  proc_delay:Simtime.Time.Span.t ->
  unit ->
  'a t
(** [loss] is the independent per-delivery drop probability in [0, 1],
    NaN refused (default 0; requires [rng] when positive; 1.0 models a
    total blackout for fault drills).  Every message takes the same
    {!transit}: there is no per-link delay, because a client's transit
    allowance reads this one figure, and the net's delivery lane relies
    on it.  [tracer] receives a
    [Net_send] per delivery attempt, then exactly one [Net_deliver] or
    [Net_drop] (with cause) for it; [classify] maps a payload to its typed
    message kind and correlation id for those events (default
    [(M_other "msg", -1)]).  [classify] is only evaluated when the tracer
    is enabled, so it costs nothing on untraced runs. *)

val engine : 'a t -> Simtime.Engine.t
(** The engine the net was created on. *)

val register : 'a t -> Host.Host_id.t -> ('a envelope -> unit) -> unit
(** Install the message handler for a host.  Re-registering replaces it. *)

val send : 'a t -> src:Host.Host_id.t -> dst:Host.Host_id.t -> 'a -> unit

val multicast : 'a t -> src:Host.Host_id.t -> dsts:Host.Host_id.t list -> 'a -> unit

(** {2 Transport statistics} *)

val sent : 'a t -> int
(** Send operations: a multicast counts once. *)

val attempts : 'a t -> int
(** Per-destination delivery attempts: a unicast adds one, a multicast one
    per destination.  Every attempt resolves as exactly one delivery or one
    drop, so once the event queue drains,
    [attempts = deliveries + dropped_loss + dropped_partition + dropped_down]. *)

val deliveries : 'a t -> int

val dropped_loss : 'a t -> int
val dropped_partition : 'a t -> int
val dropped_down : 'a t -> int
(** Deliveries suppressed because an endpoint was crashed, counted per
    destination (a crashed multicast sender counts once per destination). *)

val unicast_rtt : 'a t -> Simtime.Time.Span.t
(** The request/response round trip — the quantity the analytic model calls
    the RPC time: [2*m_prop + 4*m_proc]. *)

val prop_delay : 'a t -> Simtime.Time.Span.t
val proc_delay : 'a t -> Simtime.Time.Span.t

val transit : 'a t -> Simtime.Time.Span.t
(** [m_proc + m_prop + m_proc], the paper's [m_prop + 2*m_proc]: how long
    a unicast takes from send to the recipient's handler.  A client
    shortens each term it is granted by this much. *)
