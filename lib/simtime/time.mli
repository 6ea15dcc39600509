(** Virtual time for the discrete-event simulator.

    Absolute instants and durations ("spans") are both counted in integer
    microseconds, which keeps the simulator deterministic: no floating-point
    accumulation error, and equality of instants is exact. *)

type t [@@immediate]
(** An absolute instant, in microseconds since the start of the simulation. *)

type span [@@immediate]
(** A duration in microseconds.  Spans may be negative (e.g. the result of
    [diff] between out-of-order instants); clamp with {!Span.max} when a
    non-negative duration is required. *)

val zero : t
(** The simulation epoch. *)

val add : t -> span -> t
val diff : t -> t -> span
(** [diff a b] is the span from [b] to [a], i.e. [a - b]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val of_sec : float -> t
(** Instant from seconds since epoch (rounded to the nearest microsecond).

    @raise Invalid_argument on a non-finite value or one whose microsecond
    count falls outside the native-int range — a NaN or overflowing span
    must fail loudly rather than silently becoming an instant near the
    epoch. *)

val to_sec : t -> float
val of_us : int -> t
val to_us : t -> int
val pp : Format.formatter -> t -> unit

module Span : sig
  type time := t
  type t = span

  val zero : t

  val of_sec : float -> t
  (** @raise Invalid_argument on non-finite or microsecond-overflowing
      spans, exactly as the instant-level {!Time.of_sec}. *)

  val to_sec : t -> float
  val of_ms : float -> t
  val to_ms : t -> float
  val of_us : int -> t
  val to_us : t -> int
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val scale : float -> t -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val min : t -> t -> t
  val max : t -> t -> t
  val is_negative : t -> bool
  val clamp_non_negative : t -> t

  val since_epoch : time -> t
  (** The span from {!val:zero} to the given instant. *)

  val pp : Format.formatter -> t -> unit
end
