(** Deterministic shard map over the file namespace.

    Consistent hashing with virtual nodes: each shard owns the arcs of a
    64-bit hash ring that its tokens capture, and a file belongs to the
    shard whose token follows the file's hash clockwise.  Both token and
    file hashes come from seeded splitmix streams, so the map is a pure
    function of [(shards, seed)] — every client, the fault
    injector and the offline trace checker derive the identical placement
    with no coordination, and a map built for S shards keeps most
    placements when rebuilt for S+1 (only the keys the new shard's tokens
    capture move). *)

type t

val create : ?seed:int64 -> shards:int -> unit -> t
(** 64 tokens per shard.  Raises [Invalid_argument] when [shards] is
    below 1. *)

val shards : t -> int

val owner : t -> Vstore.File_id.t -> int
(** The shard (in [0, shards)) owning this file.  Pure and total. *)

val spread : t -> Vstore.File_id.t list -> int array
(** Files per shard for a concrete population — the balance a deployment
    actually sees, as opposed to arc-length balance. *)
