(** Seeded derivation of campaign schedules.

    Everything — workload kind and seed, cluster size, loss, fault kinds,
    instants, amplitudes — comes from splits of one splitmix root, so the
    same campaign seed always yields byte-identical schedules, and
    schedule [i] does not change when more schedules are requested.

    Clock faults respect the paper's bounded-drift assumption in the
    {e unsafe} directions (fast server / slow client): each schedule has a
    total unsafe-skew budget well under the 100 ms skew allowance, spent
    on short drift windows and small steps.  The {e safe} directions
    (slow server / fast client) are generated at large amplitude — the
    protocol must stay safe under them no matter how extreme, which is
    exactly where the drift-stale timer bug lived. *)

val unsafe_skew_budget_s : float
(** Per-schedule cap on total unsafe-direction clock divergence. *)

val schedules : seed:int -> n:int -> Schedule.t list
(** The first [n] schedules of the campaign identified by [seed].
    Raises [Invalid_argument] when [n] is negative. *)
