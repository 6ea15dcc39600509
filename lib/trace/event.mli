(** The typed protocol-event vocabulary.

    One value per observable protocol step: lease grants and releases,
    write waits and their resolution, client cache activity, network
    deliveries and drops, host and clock faults.  Events are emitted by the
    instrumented hot paths (server, client, network, engine, baselines)
    into a {!Sink} and consumed by the {!Lifecycle} reconstructor, the
    {!Checker} invariant replayer and the {!Chrome} exporter.

    This module sits below every simulation library, so it speaks plain
    data: host and file identifiers are their integer images, instants are
    float seconds.  [at] is always {e engine} (true) time, giving the
    stream a global order; host-local clock readings travel inside the
    payloads ([server_now], [local_now], expiries), because the paper's
    safety conditions are stated against per-host clocks. *)

type drop_cause = Loss | Partition | Down

type release_cause =
  | Approved  (** the holder approved a write, invalidating its copy *)
  | Writer_self  (** implicit self-approval carried on a write request *)

(** Typed classification of a network payload, replacing the old
    stringly-typed [msg] field.  The canonical constructors mirror
    [Leases.Messages.kind_name]; baselines and ad-hoc payloads travel as
    [M_other name].  Together with [corr] (the request id of the
    operation the message belongs to, the write id for approval traffic,
    or [-1] when uncorrelated) this lets the critical-path analyzer
    reconstruct per-operation causal timelines from the raw stream. *)
type msg_kind =
  | M_read_req
  | M_read_rep
  | M_extend_req
  | M_extend_rep
  | M_write_req
  | M_write_rep
  | M_approve_req
  | M_approve_rep
  | M_installed
  | M_other of string

val msg_kind_name : msg_kind -> string
(** Stable kebab-case tag, also the JSONL encoding of the kind. *)

val msg_kind_of_name : string -> msg_kind
(** Inverse of {!msg_kind_name}; unknown names decode as [M_other], so
    [msg_kind_of_name (msg_kind_name k) = k] for every [k]. *)

type kind =
  | Lease_grant of {
      file : int;
      holder : int;
      term_s : float option;  (** [None] = infinite term *)
      server_expiry : float option;  (** server-local; [None] = never *)
      server_now : float;  (** server clock at the grant *)
      renewal : bool;  (** granted on an extension rather than a read *)
    }
  | Lease_release of { file : int; holder : int; cause : release_cause }
  | Lease_expire of { file : int; holder : int; expired_at : float option }
      (** the server reaped an expired holder record: the lease lapsed on
          the server clock at [expired_at] (server-local).  Emitted at the
          reap instant — lazily on the next access to the file or from the
          periodic sweep — which may be well after [expired_at].  Distinct
          from {!Lease_release}: nobody approved anything, the term simply
          ran out and the server forgot the record. *)
  | Wait_begin of {
      write : int;
      op : int;  (** the writer's request id — the client-side op id *)
      file : int;
      writer : int;
      waiting : int list;  (** leaseholders asked for approval *)
      deadline : float option;  (** server-local expiry bound; [None] = never *)
      server_now : float;
    }
  | Wait_expire of { write : int; file : int }
      (** every covering lease expired on the server clock *)
  | Approval_request of { write : int; file : int; dsts : int list }
  | Approval_reply of { write : int; file : int; holder : int }
  | Commit of {
      write : int option;  (** [None]: committed without waiting *)
      op : int;  (** the writer's request id — the client-side op id *)
      file : int;
      writer : int;
      version : int;
      server_now : float;
      waited_s : float;
    }
  | Installed_cover of { file : int; until : float }
      (** installed-file multicast/grant coverage horizon (server-local) *)
  | Client_lease of {
      host : int;
      file : int;
      version : int;
      expiry : float option;  (** client-local; [None] = never *)
      local_now : float;
    }  (** the client (re)computed its local lease on a file *)
  | Cache_hit of { host : int; file : int; version : int; local_now : float }
  | Cache_miss of { host : int; file : int }
  | Cache_invalidate of { host : int; file : int }
  | Net_send of { src : int; dst : int; kind : msg_kind; corr : int }
  | Net_deliver of { src : int; dst : int; kind : msg_kind; corr : int }
  | Net_drop of { src : int; dst : int; kind : msg_kind; corr : int; cause : drop_cause }
  | Crash of { host : int }
  | Recover of { host : int }
  | Clock_drift of { host : int; drift : float }
  | Clock_step of { host : int; step_s : float }
  | Heartbeat of { pending : int }
      (** periodic engine sample: live event-queue depth *)

type t = { at : float;  (** engine time, seconds *) ev : kind }

val kind_name : kind -> string
(** Stable kebab-case tag, also the JSONL discriminator. *)

val drop_cause_name : drop_cause -> string
val release_cause_name : release_cause -> string

val pp : Format.formatter -> t -> unit
