(** The cache client and wire protocol the Section-6 baselines share.

    Check-on-use, Andrew-style callbacks and TTL hints sit on one axis:
    how long a client may keep a version the server hands it.  Every
    fetch and write reply says so ({!keep}), so one client serves both
    {!Callback} and {!Ttl_hints} with no protocol branches; the two differ
    only in their servers.  Check-on-use is a lease of term zero and runs
    as one.

    The client is write-through: a write drops the cached copy and waits
    for the server's reply.  It retransmits every unanswered RPC each
    {!Netsim.Rpc_table.retry_interval}, answers break requests, and
    revalidates its whole cache when asked to {!poll}.  Hosts follow
    [Leases.Cluster]'s single-server layout, and no baseline keeps a
    clock, so clock faults do not apply. *)

type keep =
  | Forever  (** a callback promise: until the server breaks it *)
  | For of Simtime.Time.Span.t  (** a hint: until the TTL runs out, promised or not *)
  | Never  (** not at all: the reply only reports the version *)

type payload =
  | Fetch_request of { req : int; file : Vstore.File_id.t }
  | Fetch_reply of { req : int; file : Vstore.File_id.t; version : Vstore.Version.t; keep : keep }
  | Reval_request of { req : int; entries : (Vstore.File_id.t * Vstore.Version.t) list }
      (** every cached version *)
  | Reval_reply of { req : int; stale : (Vstore.File_id.t * Vstore.Version.t) list }
      (** the current version of each stale entry, kept {!Forever} *)
  | Break_request of { wid : int; file : Vstore.File_id.t }
  | Break_reply of { wid : int; file : Vstore.File_id.t }
  | Write_request of { req : int; file : Vstore.File_id.t }
  | Write_reply of { req : int; file : Vstore.File_id.t; version : Vstore.Version.t; keep : keep }

val category : payload -> Leases.Messages.category
(** What a server books a message under: fetches and revalidations as
    [Extension], breaks as [Approval], writes as [Write_transfer]. *)

type client

val poll : client -> period:Simtime.Time.Span.t -> unit
(** Revalidate the client's whole cache every [period] (Andrew's poll). *)

val run :
  who:string ->
  Leases.Sim.setup ->
  server:(payload Leases.Cluster.fabric -> Vstore.Store.t -> 's) ->
  client:(client -> unit) ->
  messages:('s -> Leases.Messages.tally) ->
  report:('s -> Leases.Metrics.t -> Leases.Metrics.t) ->
  trace:Workload.Trace.t ->
  Leases.Sim.outcome
(** Runs the trace against the server [server] builds on the fabric and
    store (it registers its own handler and liveness hooks at
    [Leases.Cluster.server_host]) and the setup's clients, each passed to
    [client] as soon as it is registered.  The fabric carries the setup's
    tracer, profiler, loss and message times; [config] and
    [on_instruments] are not read.  Raises [Invalid_argument], prefixed by
    [who], when [Leases.Cluster.check] rejects the setup.  The clients'
    counters fill the hit, miss, retransmission, renewal (poll) and
    answered-approval (break) counts, the server's [messages] tally (every
    message it sent or handled, by {!category}) the message counts, and
    [report] adds the server's other counts. *)
