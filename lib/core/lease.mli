(** Lease terms, grants and expiries.

    A lease is communicated as a {e duration} rather than an absolute
    deadline — the paper notes (Section 5) that this only requires clocks
    with bounded drift, not mutually synchronised clocks.  Each side then
    converts the duration to a deadline on its own clock:

    - the server's deadline is [grant instant + term];
    - the client's deadline is
      [receive instant + term - transit allowance - skew allowance],
      i.e. the paper's effective term
      [t_c = t_s - (m_prop + 2*m_proc) - epsilon], clamped at zero.

    The asymmetry is the safety argument: the client always believes its
    lease expires no later than the server does, so (absent clock faults)
    the server can never commit a write while a client still trusts its
    cached copy. *)

type term =
  | Finite of Simtime.Time.Span.t
  | Infinite

type grant = { term : term }

type expiry [@@immediate]
(** A deadline on the clock of the host that holds the lease, or never.
    Unboxed: the deadline's microseconds, with {!never} above every instant
    a simulated clock reaches.  Storing one into a long-lived record is a
    plain write and comparing two is an int compare, which keeps a renewal
    at one table write on each side.  This module owns the encoding. *)

val term_zero : term
val term_of_sec : float -> term
val term_is_zero : term -> bool
val compare_term : term -> term -> int

val never : expiry
(** The expiry of an infinite term: never expired, the largest expiry. *)

val at : Simtime.Time.t -> expiry
(** The expiry at a finite deadline. *)

val is_never : expiry -> bool

val deadline : expiry -> Simtime.Time.t option
(** [None] for {!never}. *)

val expiry_sec : expiry -> float option
(** The deadline in seconds, [None] for {!never}: the trace encoding. *)

val server_expiry : term -> granted_at:Simtime.Time.t -> expiry
(** Deadline on the server's clock, measured from the grant instant. *)

val client_expiry :
  term ->
  received_at:Simtime.Time.t ->
  transit_allowance:Simtime.Time.Span.t ->
  skew_allowance:Simtime.Time.Span.t ->
  expiry
(** Deadline on the client's clock.  A finite term shorter than the
    combined allowances yields an already-expired lease (the paper's
    "non-zero t_s but zero t_c" case, which penalises writes without
    helping reads). *)

val expired : expiry -> now:Simtime.Time.t -> bool
(** The deadline has been reached: [deadline <= now]. *)

val expiry_max : expiry -> expiry -> expiry
val expiry_min : expiry -> expiry -> expiry

val unsafe_get_expiry : int array -> int -> expiry
(** [unsafe_get_expiry a i] reads the expiry that {!unsafe_set_expiry}
    stored at index [i] of an [int array], unchecked like
    [Array.unsafe_get].  For tables that pack expiries beside other ints,
    so a record's fields share a cache line; the encoding stays here. *)

val unsafe_set_expiry : int array -> int -> expiry -> unit
