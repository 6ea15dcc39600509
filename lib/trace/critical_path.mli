(** Critical-path attribution of client-observed operation latency.

    Folds the typed event stream into one record per client operation,
    correlated by the globally-unique request id every [Net_*] event and
    the server's [Wait_begin]/[Commit] events carry, and partitions the
    interval from the operation's first request transmission to its reply
    delivery into an exact phase decomposition: segments are produced by
    cutting at every attribution-changing event, so they telescope and the
    phase totals of a completed operation sum to its measured latency by
    construction (the conservation gate demands agreement within 1e-9 s).

    All instants are engine time, so per-host clock drift and steps cannot
    break conservation — only which phase the time is charged to.

    Feed it live as a {!Sink.t} tee'd next to the run's tracer, replay a
    buffered stream through {!feed}, or re-analyze a decoded JSONL trace:
    the three paths share all logic. *)

type phase =
  | Req_transit  (** a request copy is in flight toward the server *)
  | Backoff  (** every request copy dropped; waiting out the retry timer *)
  | Server_queue
      (** request delivered, write queued behind another pending write on
          the file (or pre-wait processing) *)
  | Wait_approval  (** lease wait resolved by a holder's approval *)
  | Wait_expiry
      (** lease wait resolved by server-side expiry, a recovery quiet
          period, or a server crash *)
  | Reply_transit  (** the reply is in flight toward the client *)
  | Reply_backoff
      (** the reply was dropped; waiting for a retransmission to draw a
          deduplicated resend *)

val phases : phase list
(** Canonical order; every per-phase listing follows it. *)

val phase_name : phase -> string

type op_kind = K_read | K_extend | K_write

val op_kind_name : op_kind -> string

val op_name : int -> string
(** ["c<host>#<seq>"] rendering of a request id (host index in the high
    bits, per-client sequence in the low 32). *)

type t

val create : ?worst:int -> unit -> t
(** [worst] (default 5, at least 0) is how many of the slowest completed
    writes the analyzer keeps for {!report}'s exemplars.  It keeps no
    other completed operation, so its memory is bounded by the open
    operations and [worst]. *)

val feed : t -> Event.t -> unit

val sink : t -> Sink.t
(** A live sink feeding the analyzer; tee it next to the run's tracer. *)

val phase_sums_for : t -> server:int -> (string * float) list
(** Cumulative per-phase delay sums over the completed {e writes} served
    by host [server], in {!phases} order (zeros for a server with none) —
    the telemetry sampler differences these into per-window sums. *)

(** {1 Reporting} *)

type seg = { s_phase : phase; s_from : float; s_to : float }

type approval_drop = { d_msg : string; d_holder : int; d_cause : Event.drop_cause; d_at : float }

type kind_stats = {
  ks_kind : op_kind;
  ks_count : int;  (** completed operations *)
  ks_incomplete : int;  (** still open when the report was taken *)
  ks_abandoned : int;  (** client crashed mid-operation *)
  ks_latency : Stats.Histogram.summary;
  ks_phases : (phase * Stats.Histogram.summary) list;
}

type wait_view = {
  wv_write : int;
  wv_blockers : (int * string * float) list;
      (** holder, resolution ("approved"/"expired"/"server-crash"/
          "unresolved"), resolution instant (nan when unresolved) *)
  wv_drops : approval_drop list;  (** oldest first *)
}

type worst = {
  w_op : int;
  w_client : int;
  w_server : int;
  w_file : int;
  w_latency : float;
  w_from : float;
  w_to : float;
  w_retrans : int;
  w_phases : (phase * float) list;  (** every phase, canonical order *)
  w_dominant : phase;
  w_timeline : seg list;  (** oldest first; adjacent same-phase merged *)
  w_waits : wait_view list;  (** oldest first *)
  w_explain : string;  (** one-line causal narrative *)
}

type server_stats = {
  srv_host : int;
  srv_ops : int;
  srv_writes : int;
  srv_write_phase_sums : (phase * float) list;
}

type report = {
  r_kinds : kind_stats list;  (** read, extend, write — fixed order *)
  r_checked : int;  (** completed ops through the conservation check *)
  r_max_err : float;  (** worst |phase sum - measured latency| seen *)
  r_worst : worst list;  (** slowest completed writes, latency desc *)
  r_servers : server_stats list;  (** sorted by host id *)
}

val report : ?k:int -> t -> report
(** [k] bounds the worst-write exemplar list (default: the analyzer's
    [worst]).  Raises [Invalid_argument] when [k] exceeds [worst]. *)

val to_json : report -> Json.t
(** The [leases-latency/1] document — deterministic member order and float
    rendering, so identical seeded runs export byte-identical files. *)

val export : report -> string
(** [to_json] serialized, newline-terminated. *)

val pp_report : Format.formatter -> report -> unit
