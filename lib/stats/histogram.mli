(** Log-bucketed histogram for latency-like quantities.

    Every histogram has the same bucket layout: 128 buckets growing
    geometrically from [least] = 1e-6 with ratio [growth] = 1.2, their
    bounds computed once.  Quantile estimates interpolate linearly within
    a bucket, so their relative error is bounded by [growth - 1].  An
    {!add} allocates nothing.

    Not synchronized: a histogram must be owned by one domain at a time.
    Parallel harnesses give each sub-simulation its own histograms and
    {!merge} them (in a fixed order, for float determinism) after the
    domains join. *)

type t

val create : unit -> t
(** An empty histogram.  Values below [least] (including zero) land in an
    underflow bucket; values at or beyond the last bound, [least *
    growth^128], land in an overflow bucket. *)

val add : t -> float -> unit
(** Raises [Invalid_argument] on a NaN, which has no bucket. *)

val count : t -> int

val merge : t -> t -> unit
(** [merge t other] folds [other]'s samples into [t] (bucket-wise; the
    exact sum is carried over too).  [other] is left untouched. *)

val sum : t -> float
(** Exact running sum of every sample added (not bucket-quantised) — what
    the telemetry sampler differences to get per-window means. *)

val bucket_index : float -> int
(** Index of the bucket [add] would place a sample in: 0 = underflow,
    1..128 = geometric buckets (bucket [i] covers the half-open range from
    [least * growth^(i-1)] to [least * growth^i]), 129 = overflow, from
    [least * growth^128] up to and including [infinity].  Raises
    [Invalid_argument] on a NaN.  Exposed so boundary behaviour at exact
    bucket edges is testable. *)

val quantile : t -> float -> float
(** [quantile t q] for q in [0, 1].  0.0 when empty. *)

val mean : t -> float

type summary = {
  s_count : int;
  s_sum : float;  (** exact sample sum, not bucket-quantised *)
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_p999 : float;  (** p99.9 — one in a thousand; p99 is too coarse at 10k clients *)
}

val summary : t -> summary
(** One-shot tail summary: count, exact sum, mean and the
    p50/p90/p99/p99.9 quantile estimates (all 0 when empty). *)

val pp : Format.formatter -> t -> unit
(** A compact summary line: count, mean, p50, p90, p99, p99.9, sum. *)
