(** Chrome trace-event export (Perfetto / chrome://tracing).

    Renders lease lifetimes and write waits as complete ("X") spans —
    leases grouped by holder (pid) and file (tid), waits under the server —
    faults and drops as instants ("i"), and the engine heartbeat as a
    counter ("C").  Timestamps are microseconds per the format.  [servers]
    and [owner] are {!Lease_state.create}'s: a server crash ends only its
    own files' leases, and each wait is drawn under its file's server. *)

val write : ?servers:int list -> ?owner:(int -> int) -> out_channel -> Event.t list -> unit
