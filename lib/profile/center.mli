(** The closed cost-center vocabulary: one constructor per (event kind x
    subsystem) the engine dispatches, plus the nested [Trace_emit] span and
    the [Other] fallback.  The set is deliberately closed — the recorder
    indexes a flat array by {!index}, and reports list every center in
    {!all} order so output is byte-deterministic. *)

type t =
  | Engine_dispatch  (** event-queue pop, heartbeat check, inter-event time *)
  | Net_delivery  (** delivery attempts: drop checks + handler hand-off *)
  | Server_grant  (** read/extend handling: grants and renewals *)
  | Server_write  (** write/approval/installed handling: waits, commits, WAL *)
  | Server_expiry  (** expiry timers, pending sweeps, installed refresh *)
  | Client_op  (** workload-driven client read/write issue *)
  | Client_renewal  (** client renewal timers and extend requests *)
  | Client_handle  (** client reply handling: grants, approvals, invalidations *)
  | Timer_fire  (** local-deadline timers whose callback never refined *)
  | Telemetry_sample  (** telemetry sampler window capture *)
  | Trace_emit  (** trace sink pushes, accounted as a nested span *)
  | Other  (** unattributed callbacks: fault injections, drains *)

val count : int
(** Number of centers; [index] is a bijection onto [0 .. count - 1]. *)

val index : t -> int

val all : t list
(** Every center, in [index] order — the canonical report order. *)

val name : t -> string
(** Stable slug, e.g. ["net/delivery"]; used in reports and flamegraphs. *)
