(** Per-entity breakdowns of the hot server counters.

    The aggregate counter registry answers "how many reads did the server
    handle"; telemetry also wants "which files and which clients produced
    them".  A breakdown is a set of int-keyed monotone count tables
    (file ids and client host ids), attached to a server only while
    telemetry is sampling — every hot-path bump site is guarded on the
    option being [Some], the same one-load-one-branch pattern as the trace
    [enabled] flag, so the default run pays nothing but the branch. *)

type axis
(** One int-keyed monotone count table. *)

type t = {
  reads_by_file : axis;  (** read requests per file *)
  reads_by_client : axis;  (** read requests per requesting client *)
  extensions_by_file : axis;  (** files covered by extension (batch) requests *)
  extensions_by_client : axis;  (** extension requests per client *)
  approvals_by_file : axis;  (** approval replies received per file *)
  approvals_by_client : axis;  (** approval replies per answering holder *)
  write_waits_by_file : axis;  (** write waits begun per file *)
  write_waits_by_client : axis;  (** write waits begun per writer *)
}

val create : unit -> t

val bump : axis -> int -> unit
(** Increment the count under [key], creating it at 1 on first use. *)

val sample : axis -> int array
(** The keys bumped since the previous [sample] (or since creation), each
    with its increment over that span, as one flat array of (key,
    increment) pairs [[| k0; d0; k1; d1; ... |]] sorted by key —
    deterministic regardless of hash layout, with no zero increments, and
    empty when nothing moved.  Costs the keys that moved, not every key
    the axis has seen.  The caller owns the array.  An axis has one
    reader: the telemetry sampler that attached it. *)

val total : axis -> int

val axes : t -> (string * axis) list
(** Every axis with its stable telemetry label, in fixed declaration
    order. *)
