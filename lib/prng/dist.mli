(** Random variates over a {!Splitmix.t} source.

    These cover the distributions the workload generators need: exponential
    inter-arrival gaps (Poisson processes), geometric run lengths, Zipf file
    popularity, and Pareto burst gaps. *)

val exponential : Splitmix.t -> mean:float -> float
(** Exponentially distributed with the given mean.  [mean] must be
    positive. *)

val geometric : Splitmix.t -> p:float -> int
(** Number of Bernoulli(p) trials up to and including the first success;
    at least 1.  [p] must be in (0, 1]. *)

val uniform : Splitmix.t -> lo:float -> hi:float -> float

(** Zipf-distributed ranks in [0, n), exponent [s] >= 0, by inversion over
    a precomputed CDF.  Rank 0 is the most popular.  Build the table once
    and draw from it: building costs [n] powers, a draw one uniform and a
    binary search, and allocates nothing. *)
module Zipf_table : sig
  type t

  val create : n:int -> s:float -> t
  (** Raises [Invalid_argument] when [n <= 0] or [s < 0]. *)

  val draw : t -> Splitmix.t -> int
end

val pareto : Splitmix.t -> shape:float -> scale:float -> float
(** Pareto distributed: [scale] is the minimum value, [shape] > 0 the tail
    index.  Heavy-tailed for shape <= 2; used for think-time bursts. *)
