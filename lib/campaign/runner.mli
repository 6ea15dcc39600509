(** Execute one schedule with both safety monitors armed and classify the
    outcome. *)

type classification =
  | Clean  (** every issued operation completed; no safety finding *)
  | Degraded  (** liveness only: some operations never completed *)
  | Safety  (** oracle staleness or a trace-checker invariant violation *)

type outcome = {
  schedule : Schedule.t;
  classification : classification;
  oracle_violations : int;
  checker_violations : int;
  first_violation : string option;  (** earliest finding, human-readable *)
  ops_issued : int;
  dropped_ops : int;
  commits : int;
  checked_events : int;  (** events the invariant checker was fed *)
  telemetry : Telemetry.Residual.summary;
      (** per-window analytic-model residuals sampled over the run,
          including the 120 s drain: windows are a 24th of the workload's
          duration, clamped to 2.5–30 s, so about 67 per schedule (per
          shard) at seed 1; fault windows surface here as flagged residual
          swings *)
  worst_write : string option;
      (** {!Trace.Critical_path} explanation of the schedule's slowest
          completed write — which phase dominated, which holders blocked
          it and how each wait resolved; [None] when no write completed *)
}

val classification_name : classification -> string

val telemetry_interval_s : float -> float
(** The sampling interval used for a schedule of the given duration. *)

val run : Schedule.t -> outcome
(** Runs {!Schedule.trace} through [Shard.Deploy.run] on the schedule's
    {!Schedule.deploy_setup} (one server or several) with the register
    oracle and a telemetry sampler evaluating the Section 3.1 residuals
    per window.  The run's tracer feeds a {!Trace.Checker} and a
    writes-only {!Trace.Critical_path} analyzer live, event by event;
    nothing is buffered, so memory does not grow with the trace.  The
    sampler records no window detail (no counters, skews or per-entity
    breakdown), which the residual summary does not read.  The checker takes
    its file owners from {!Shard.Deploy.shard_map}, the map the run itself
    uses. *)

val to_json : outcome -> Trace.Json.t
