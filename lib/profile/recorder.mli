(** Low-overhead self-profiling recorder for the simulation engine.

    A slice machine: exactly one cost center is open at any instant, and
    every transition charges the wall time and GC words elapsed since the
    previous transition to the center that was open.  Slices partition the
    measured interval, so per-center totals sum to the measured wall time
    exactly and nested centers can never double-count.

    The engine drives {!event_begin}/{!event_end} around its single
    dispatch site; subsystem callbacks refine the open event with {!mark}
    (relabel) or {!enter}/{!exit} (nested span, e.g. trace emission inside
    a delivery).  Outside events the open center is [Engine_dispatch], so
    queue maintenance between callbacks is attributed too.

    Guard discipline: {!null} has [enabled = false] and every probe entry
    checks it first — a disabled probe costs one load and one branch, the
    same shape as the trace sink's [enabled] guard and telemetry's
    [probe_disabled] bench row. *)

type t

val null : t
(** Disabled recorder; every operation is a guarded no-op. *)

val create :
  ?interval_s:float -> ?words:(unit -> float * float) -> timer:(unit -> float) -> unit -> t
(** [create ~timer ()] makes an enabled recorder.  [timer] is a monotonic
    wallclock in seconds (the library stays clock-agnostic, like
    [Experiments.Corebench]).  [words] returns cumulative (minor, major) GC
    words of the calling domain and defaults to [Gc.counters]; tests
    inject deterministic counters through both hooks to get byte-identical
    reports.
    [interval_s] is the sim-time cadence of engine-health samples (default
    10 s, matching the telemetry sampler).  Raises [Invalid_argument] on a
    non-positive interval. *)

val enabled : t -> bool
val interval_s : t -> float

(** {1 Engine dispatch hooks} — called only by [Simtime.Engine.step],
    inside its own [enabled] guard. *)

val start : t -> unit
(** Open the measured interval (idempotent; [event_begin] auto-starts). *)

val event_begin : t -> unit
(** A callback is about to run: charge the inter-event slice to
    [Engine_dispatch] and open an [Other] frame for the callback. *)

val event_end :
  t ->
  sim_now:float ->
  queue_depth:int ->
  occupied_slots:int ->
  pushed:int ->
  cancelled:int ->
  unit
(** The callback returned: charge its final slice, unwind any span it left
    open, and capture an engine-health sample when the sim clock has
    crossed the next cadence boundary.  [pushed]/[cancelled] are the
    queue's cumulative counters. *)

val stop : t -> unit
(** Close the measured interval (idempotent). *)

(** {1 Probe points} — called from subsystem callbacks. *)

val mark : t -> Center.t -> unit
(** Relabel the open event frame: the slice since the last transition stays
    with the previous center, everything after belongs to [center]. *)

val enter : t -> Center.t -> unit
(** Open a nested span; pair with {!exit}.  Unbalanced enters are unwound
    (and correctly charged) at [event_end]. *)

val exit : t -> unit

(** {1 Results} *)

type row = {
  r_center : Center.t;
  r_hits : int;  (** times entered via mark/enter *)
  r_wall_s : float;
  r_minor_words : float;
  r_major_words : float;
}

val rows : t -> row list
(** One row per center, in {!Center.all} order. *)

val events_total : t -> int
val wall_total_s : t -> float
val minor_words_total : t -> float
val major_words_total : t -> float

val measured_wall_s : t -> float
(** [t_stop - t_start] once stopped; equals {!wall_total_s} up to float
    rounding because slices partition the interval. *)

type sample = {
  s_t : float;  (** sim seconds at capture *)
  s_queue_depth : int;  (** live scheduled events *)
  s_occupied_slots : int;  (** heap slots, live + tombstones *)
  s_live_ratio : float;  (** depth / slots; 1.0 when tombstone-free *)
  s_cancel_ratio : float;  (** cancels per push within the window *)
  s_events : int;  (** events dispatched within the window *)
  s_events_per_sim_s : float;
}

val samples : t -> sample list
(** Engine-health series, oldest first, at most one per [interval_s] of
    sim time. *)
