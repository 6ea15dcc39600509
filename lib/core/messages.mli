(** The lease protocol's wire messages.

    Five exchanges, matching Section 2:

    - {e read}: a cache-miss read fetches the datum's current version and a
      lease in one unicast round trip;
    - {e extend}: renewal of the leases a cache already holds, batched over
      many files ("a cache should extend together all leases over all files
      that it still holds");
    - {e write}: the write-through update;
    - {e approval}: the server's callback to every other leaseholder before
      a write may commit; the writer's own approval rides implicitly on its
      write request;
    - {e installed refresh}: the Section-4 optimisation — the server
      periodically multicasts one extension covering all installed files,
      so clients holding them never send extension requests.

    For accounting, every message falls into a {!category}; the paper's
    "consistency-related" load counts [Extension], [Approval] and
    [Installed] messages but not the write transfer itself. *)

type req_id = int
type write_id = int

(** A renewal batch travels as flat arrays: a request's [files], and a
    reply's [files], [versions] and [leases], where index [i] of the three
    reply arrays is the grant for the request's file [i].  A batch thus
    allocates a fixed number of blocks, whatever its line count.

    Nobody writes into an array once it is sent.  A retransmission resends
    the request as it is, and the reply shares the request's [files]
    array rather than copying it. *)
type payload =
  | Read_request of { req : req_id; file : Vstore.File_id.t }
  | Read_reply of {
      req : req_id;
      file : Vstore.File_id.t;
      version : Vstore.Version.t;
      lease : Lease.grant option;  (** [None]: no lease (zero term or write pending) *)
    }
  | Extend_request of { req : req_id; files : Vstore.File_id.t array }
      (** the missed file first, when a miss carries the batch *)
  | Extend_reply of {
      req : req_id;
      files : Vstore.File_id.t array;  (** the request's own array *)
      versions : Vstore.Version.t array;
      leases : Lease.grant option array;
          (** the server's shared lease values: every line of one term
              holds the same physical value *)
    }
  | Write_request of { req : req_id; file : Vstore.File_id.t }
  | Write_reply of { req : req_id; file : Vstore.File_id.t; version : Vstore.Version.t }
  | Approval_request of { write : write_id; file : Vstore.File_id.t }
  | Approval_reply of { write : write_id; file : Vstore.File_id.t }
  | Installed_refresh of {
      covered : (Vstore.File_id.t * Vstore.Version.t) list;
      (** each covered file with its current version: a client may only
          extend a cached entry whose version matches; a mismatched entry
          is stale (it missed a delayed update) and must be dropped *)
      term : Simtime.Time.Span.t;
    }

type category =
  | Extension  (** read/extend traffic — what leases exist to eliminate *)
  | Approval  (** write-approval callbacks and replies *)
  | Installed  (** periodic multicast refreshes *)
  | Write_transfer  (** the write itself; present with or without leases *)

val category : payload -> category

val kind_name : payload -> string
(** Short stable tag per constructor ("read-req", "approve-rep", ...),
    used to label network events in traces. *)

val trace_class : payload -> Trace.Event.msg_kind * int
(** Typed trace classification: the message kind plus the correlation id
    tying the packet to its operation (the client request id for RPC
    traffic, the server write id for approval traffic, [-1] for the
    uncorrelated installed-files multicast).  Feeds [Net.create ?classify]
    so traced [Net_*] events can be joined back to operations. *)

val pp : Format.formatter -> payload -> unit
