(** Named monotonic counters, grouped into a registry so a simulation can
    dump every count it accumulated in one call, or held on their own by a
    component too numerous to pay for a registry each (a lease client).

    Counters are plain mutable cells and registries plain hash tables —
    no synchronization.  Every registry is created by (and encapsulated
    in) one simulation component, so a parallel harness that keeps each
    sub-simulation on a single domain never shares one; keep it that
    way rather than reaching for atomics on these hot paths. *)

type t

val create : string -> t
(** A counter at zero, in no registry. *)

module Registry : sig
  type counter := t
  type t

  val create : unit -> t

  val counter : t -> string -> counter
  (** The counter registered under [name], creating it at zero on first
      use.  Repeated calls with the same name return the same counter. *)

  val counters : t -> counter list
  (** Every registered counter, sorted by name.  A reader that samples a
      registry repeatedly resolves its cells once — what the telemetry
      sampler does to merge several counter lists ("server/", "client/0/",
      ...) into one deterministically ordered namespace. *)

  val to_list : t -> (string * int) list
  (** All counters with their values, sorted by name.  Every listing
      ({!counters}, {!to_list}, {!pp}) is deterministically ordered so
      registry output is byte-stable across runs regardless of hash-table
      layout. *)

  val find : t -> string -> int
  (** Current value under [name]; 0 if never touched. *)

  val reset : t -> unit

  val pp : Format.formatter -> t -> unit
end

val incr : t -> unit
val add : t -> int -> unit
val value : t -> int
val name : t -> string
