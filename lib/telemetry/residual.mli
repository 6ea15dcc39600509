(** Live residuals of the §3.1 analytic model against measured telemetry.

    For each closed sampler window the reporter re-evaluates the paper's
    closed-form model from the rates {e measured in that window} — R from
    the window's reads (see {!Sampler} for when a read counts), W from
    commits, S recovered from the approval/commit
    ratio — and compares its predicted consistency load and delay with the
    window's measured values.  The residual is the relative error,
    [(measured - predicted) / max predicted floor], where the floor is one
    message (resp. 0.1 ms of delay) per window so idle windows read as
    agreement rather than division blow-ups.

    Windows whose absolute load residual exceeds the tolerance are
    {e flagged}: a fault window shows a large negative residual while the
    server is down (no messages flow but the model still predicts load from
    the reads the window counts) followed by a positive recovery spike.

    The {e steady} residual pools measured and predicted message totals
    over all read-active windows past the warm-up cutoff, which averages
    out per-window Poisson noise — this is the number the
    [scripts/check.sh] gate tests.  The cutoff matters: every first access
    to a file costs a read RPC that the steady-state model amortises away,
    and with a Zipf-tailed fileset those first accesses keep arriving for
    minutes (seeded V-workload runs measure +26 % over the model with no
    cutoff, +1.6 % past 300 s). *)

type params = {
  n_clients : int;
  m_prop_s : float;
  m_proc_s : float;
  epsilon_s : float;  (** the clock-skew allowance subtracted from the term *)
  term : Analytic.Model.term;  (** the configured server-side term *)
  tolerance : float;  (** per-window flag threshold on |load residual| *)
  warmup_s : float;  (** windows ending at or before this are excluded
                         from the steady residual (cold-cache ramp) *)
}

val default_tolerance : float
(** 0.5 — per-window Poisson noise at V-trace rates over a 30 s window is
    of order 20 %, so individual windows legitimately swing well past the
    pooled steady-state tolerance. *)

val default_warmup_s : float
(** 300 s — where the seeded V-workload cold-cache ramp has decayed into
    the Poisson noise (see EXPERIMENTS.md). *)

val params_of_config :
  ?tolerance:float ->
  ?warmup_s:float ->
  n_clients:int ->
  m_prop:Simtime.Time.Span.t ->
  m_proc:Simtime.Time.Span.t ->
  Leases.Config.t ->
  params
(** The parameters of a lease run with [n_clients] clients, these message
    times and this config: its skew allowance, and the term its policy
    grants (an adaptive policy evaluates at its max term).  Raises
    [Invalid_argument] unless [n_clients] and [tolerance] are positive
    and [warmup_s] is non-negative. *)

type eval = {
  e_window : Sampler.window;
  r_rate : float;  (** measured reads per second per client *)
  w_rate : float;  (** measured commits per second per client *)
  sharing : int;  (** S recovered from approval traffic; 1 when unobserved *)
  measured_load : float;  (** consistency messages per second *)
  predicted_load : float;
  load_residual : float;
  measured_delay : float;
      (** mean consistency delay per operation, seconds: read latency as
          recorded (hits are instant) plus write latency in excess of the
          one unavoidable write RPC *)
  predicted_delay : float;
  delay_residual : float;
  flagged : bool;  (** |load_residual| > tolerance *)
}

val evaluate_window : params -> Sampler.window -> eval
val evaluate : ?server:int -> params -> Sampler.t -> eval list
(** One {!eval} per closed window of {!Sampler.windows}: one server's, in
    time order, or every server's, server by server. *)

type summary = {
  windows : int;
  flagged_windows : int;
  mean_measured_load : float;
  mean_predicted_load : float;
  peak_measured_load : float;
  worst_load_residual : float;  (** signed residual of largest magnitude *)
  worst_window_t : float;  (** that window's [t_end]; 0 with no windows *)
  steady_load_residual : float;
      (** pooled (measured - predicted) / predicted over read-active
          windows past the warm-up cutoff (falling back to all but the
          first active window when the run is shorter than the warm-up) *)
}

val summarize : params -> eval list -> summary

val summaries : params -> Sampler.t -> summary array
(** The summary of each server the sampler watched, in server order: a
    K-server world's shard [s] at index [s], a one-server world's at 0. *)
