(** Greedy minimisation of a safety-violating schedule.

    Tries, in order: dropping whole faults, zeroing message loss, rounding
    fault instants to whole seconds, and halving durations/amplitudes —
    re-running the schedule after each candidate and keeping it only while
    the safety violation persists.  Deterministic, and bounded by 150
    re-executions. *)

val minimize : still_fails:(Schedule.t -> bool) -> Schedule.t -> Schedule.t * int
(** [minimize ~still_fails s] returns the minimised schedule and the number
    of re-executions spent.  [still_fails] must be true of [s] itself
    (callers pass schedules already classified {!Runner.Safety}). *)
