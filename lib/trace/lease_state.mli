(** The lease state an event stream implies, folded one event at a time.

    The one place in this library that starts and ends leases and resolves
    a write's blockers: the server-side leases by file and holder, each
    client's recorded leases, installed-file coverage, the latest committed
    version of each file, and the open write waits.  The invariant
    {!Checker} judges each event against this state before feeding it, and
    the {!Lifecycle} view records what it reports.

    [servers] are the server hosts and [owner] maps a file to the server
    that owns it (default: one server, host 0, owning every file), so a
    server crash ends only the leases, coverage and waits of that server's
    files.  Versions and expiries live unboxed in flat arrays: a
    [Lease_grant] or [Client_lease] on a held key, a [Lease_expire], a
    [Lease_release] and a [Commit] of no waiting write allocate nothing
    but what [on_end] does.  Ids and versions must be non-negative, host
    ids below 2^30 and file ids below 2^32 ({!feed} raises
    [Invalid_argument] otherwise). *)

type end_cause =
  | Released of Event.release_cause  (** approved away, or the writer's own *)
  | Expired  (** reaped by its server after the term lapsed on the server's clock *)
  | Commit_sweep  (** dropped when a write to its file committed *)
  | Regrant  (** replaced by a fresh non-renewal grant to the same holder *)
  | Server_crash  (** lost with its server's lease table *)

type resolution =
  | Res_approved of float  (** engine time the holder's approval arrived *)
  | Res_expired of float  (** engine time the wait stopped waiting on the holder *)

type blocker = { b_holder : int; mutable resolution : resolution option }

(** A write that waited on leaseholders, open from its [Wait_begin] until
    it commits or its server crashes; either resolves every blocker still
    unresolved as expired. *)
type wait = {
  write : int;
  w_file : int;
  writer : int;
  began_at : float;
  blockers : blocker list;
  mutable committed_at : float option;
  mutable waited_s : float option;  (** from the [Commit] event *)
  mutable by_expiry : bool;  (** resolved by lease expiry rather than full approval *)
}

type t

val create :
  ?servers:int list ->
  ?owner:(int -> int) ->
  ?on_end:(int -> end_cause -> float -> unit) ->
  unit ->
  t
(** [on_end lease cause at] hears of every server-side lease's end, with
    the engine instant; leases are numbered from 0 in the order they start
    (a renewal starts none). *)

val feed : t -> Event.t -> unit

val lease : t -> file:int -> holder:int -> int
(** The number of [holder]'s live lease on [file], or [-1]. *)

val outliving :
  t -> file:int -> except:int -> server_now:float -> slack:float -> (int * float) list
(** The [(holder, server expiry)] of every live lease on [file] held by a
    host other than [except] that runs past [server_now +. slack], in
    ascending holder order; [infinity] never expires.  [[]] allocates
    nothing. *)

val cover : t -> int -> float option
(** A file's installed-coverage horizon, server-local. *)

val committed : t -> int -> int
(** A file's latest committed version, or [-1]. *)

val client_lease : t -> host:int -> file:int -> int
(** A handle on the lease [host] recorded on [file], valid until the next
    {!feed}; [-1] when it holds none (never recorded, invalidated, or lost
    in a crash). *)

val client_version : t -> int -> int
val client_expiry : t -> int -> float
(** On the client's clock; [infinity] is never. *)

val wait : t -> int -> wait
(** The open wait of a write id.  Raises [Not_found] when none is open. *)
