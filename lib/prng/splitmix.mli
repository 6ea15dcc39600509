(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every stochastic component of the simulator draws from its own split of
    a single root generator, so that adding a new source of randomness (or
    reordering draws within one component) never perturbs the streams seen
    by the others.  This is what makes experiment runs exactly replayable
    from a single integer seed.

    Generators carry unsynchronized mutable state.  A parallel harness
    must {!split} every stream it hands out {e before} spawning domains,
    in a fixed order; afterwards each generator may only be advanced by
    the domain that received it.  Splitting on demand from a shared root
    would make the draw sequence depend on domain scheduling.

    The state is 8 unboxed bytes: {!float}, {!int} and {!bool} allocate
    nothing in a build with cross-module inlining (the default release
    profile), and {!next_int64} allocates only where its caller keeps the
    [int64] boxed.  Under [--profile dev], which compiles libraries
    [-opaque], a {!float} draw from another module returns a boxed
    float. *)

type t

val create : seed:int64 -> t

val split : t -> t
(** A statistically independent generator derived from (and advancing) [t]. *)

val next_int64 : t -> int64
(** Uniform over all 2^64 bit patterns. *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> bound:int -> int
(** Uniform in [0, bound).  [bound] must be positive. *)

val bool : t -> p:float -> bool
(** [true] with probability [p]. *)
