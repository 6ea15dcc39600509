(** Identities of leasable data.

    A "file" here is anything a lease can cover: file contents, but also a
    directory's name-to-file bindings and permission information — the paper
    notes a repeated [open] needs a lease over naming data too.  Directories
    therefore get file ids of their own (see {!Namespace}). *)

type t [@@immediate]

val of_int : int -> t
(** Must be non-negative. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Tbl : Int_tbl.S with type key = t
(** Open-addressing tables over the id's int (see {!Int_tbl}): a probe is a
    multiply, a shift and an int compare, with no call into the polymorphic
    hash or compare.  Iteration follows slot order, which depends on the
    keys' hashes and the insertion history, so use [Tbl] only for tables
    that are probed, or iterated in an order-independent way (sums, minima,
    sorted dumps). *)
