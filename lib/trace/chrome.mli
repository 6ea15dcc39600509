(** Chrome trace-event export (Perfetto / chrome://tracing).

    Renders lease lifetimes and write waits as complete ("X") spans —
    leases grouped by holder (pid) and file (tid), waits under the server —
    faults and drops as instants ("i"), and the engine heartbeat as a
    counter ("C").  Timestamps are microseconds per the format.  [servers]
    and [owner] are {!Lease_state.create}'s: a server crash ends only its
    own files' leases, and each wait is drawn under its file's server. *)

type t

val create : ?servers:int list -> ?owner:(int -> int) -> unit -> t

val sink : t -> Sink.t
(** Feeds the lifecycle fold live and keeps only the events drawn as
    instants or counters, so a run of any length is exported in the
    memory of its leases, waits and those events. *)

val output : t -> out_channel -> unit
(** Writes the document for the stream pushed so far. *)

val write : ?servers:int list -> ?owner:(int -> int) -> out_channel -> Event.t list -> unit
(** Pushes the events through a fresh {!sink} and writes the document. *)
