(** File version numbers.

    Every committed write bumps the version; reads return the version they
    observed, which is what the consistency oracle checks.  Version 0 is
    the initial (never-written) state of every file. *)

type t [@@immediate]

val initial : t
val next : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val to_int : t -> int
val of_int : int -> t
val pp : Format.formatter -> t -> unit
