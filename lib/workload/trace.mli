(** An operation trace: the unit the simulator consumes and the generators
    produce.

    A trace is a struct of arrays in {!Op.compare_by_time} order: one
    [int array] of arrival instants in microseconds, and one [int array]
    with each op's client, file, kind and temporary flag packed into one
    int.  An op costs two words.  Read an op through the accessors, by its
    index in [0, length). *)

type t

val client_limit : int
(** 2{^30}: client indices lie in [0, client_limit). *)

val file_limit : int
(** 2{^26}: file ids lie in [0, file_limit).  That covers the V fileset of
    10{^6} clients (4.0 x 10{^7} ids). *)

(** Traces are built by appending ops in any order; {!finish} sorts them. *)
module Builder : sig
  type trace := t
  type t

  val create : unit -> t

  val add :
    t ->
    at:Simtime.Time.t ->
    client:int ->
    kind:Op.kind ->
    file:Vstore.File_id.t ->
    temporary:bool ->
    unit
  (** Appends one op.  Raises [Invalid_argument], naming the field and the
      value, for a negative arrival, a client outside [0, client_limit) or
      a file outside [0, file_limit). *)

  val length : t -> int
  (** Ops appended so far. *)

  val chunk_size : int
  (** The builder keeps its ops in chunks of this many (8 192), the first
      growing by doubling up to it; exposed so tests can reach across
      chunk boundaries. *)

  val rotate : t -> from:int -> mid:int -> unit
  (** [rotate b ~from ~mid] moves the ops appended since position [mid]
      in front of those at positions [from] to [mid - 1], keeping the
      order within each run.  Ties in {!finish}'s sort keep append order,
      so this places one stream after another drawn later. *)

  val finish : t -> trace
  (** The appended ops in {!Op.compare_by_time} order, ties in append
      order: exactly [List.stable_sort Op.compare_by_time] of the ops in
      append order.  Empties the builder. *)
end

val of_ops : Op.t list -> t
(** Sorts into deterministic time order (stable, as {!Builder.finish}).
    Raises [Invalid_argument] as {!Builder.add}. *)

val length : t -> int

val duration : t -> Simtime.Time.Span.t
(** Instant of the last operation; zero for an empty trace. *)

(** {1 Reading op [i]} *)

val at : t -> int -> Simtime.Time.t
val client : t -> int -> int
val file : t -> int -> Vstore.File_id.t
val kind : t -> int -> Op.kind
val temporary : t -> int -> bool

val op : t -> int -> Op.t
(** Op [i] as a record, for callers that want one; the simulator reads the
    fields. *)

val remap : t -> f:(Op.t -> Op.t) -> t
(** The trace of [f] applied to every op, re-sorted: a new arrival or file
    can change the order and how ties fall.  Raises [Invalid_argument] as
    {!Builder.add}. *)

val partition : t -> parts:int -> f:(int -> int) -> t array
(** [partition t ~parts ~f] splits the trace into [parts] traces: op [i]
    goes to part [f i], in [0, parts), and each part keeps trace order. *)

type summary = {
  operations : int;
  reads : int;
  writes : int;
  temporary_ops : int;
  clients : int;  (** distinct client indices *)
  files : int;  (** distinct files touched *)
  duration_sec : float;
  read_rate_per_client : float;  (** server-visible reads/sec/client *)
  write_rate_per_client : float;  (** server-visible writes/sec/client *)
  read_write_ratio : float;  (** server-visible reads per write; [infinity] when no writes *)
}

val summarize : t -> summary
(** Rates exclude temporary-file operations, which never reach the server —
    matching how the paper's Table 2 parameters were measured. *)

val pp_summary : Format.formatter -> summary -> unit
