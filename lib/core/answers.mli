(** The requests a server answered, by request: its sender and the
    sender's request id, which senders may share (the Section-6 clients
    all count from 0).  A server keeps each answer here to answer a
    retransmission of the request again.  The hash is int arithmetic on
    the pair, with no call into the polymorphic hash. *)

include Hashtbl.S with type key = Host.Host_id.t * int
