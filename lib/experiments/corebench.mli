(** Simulation-core benchmarks behind [bin/bench_core.ml]: event-queue and lease-table microbenches, plus
    end-to-end simulated-seconds-per-wallclock-second throughput.

    Every function takes [timer], a monotonic wallclock in seconds
    (e.g. [Unix.gettimeofday]) — this library stays clock-agnostic. *)

type micro = { ops : int; elapsed_s : float; ops_per_sec : float }

type queue_growth = {
  g_micro : micro;
  max_slots : int;  (** peak occupied heap slots (live + tombstones) *)
  live_target : int;  (** live events maintained throughout *)
}

type throughput = {
  n_clients : int;
  sim_seconds : float;
  wall_seconds : float;
  sim_sec_per_wall_sec : float;
}

val event_queue_push_pop : timer:(unit -> float) -> ops:int -> micro

val event_queue_cancel_heavy : timer:(unit -> float) -> ops:int -> queue_growth
(** Cancel-and-replace churn at a fixed live population; [max_slots] staying
    within a small multiple of [live_target] shows tombstone compaction
    bounds the heap. *)

val lease_table_churn : timer:(unit -> float) -> ops:int -> micro

type trace_emit = { null_sink : micro; ring_sink : micro; ring_dropped : int }

val trace_emit : timer:(unit -> float) -> ops:int -> trace_emit
(** Guarded trace-emit attempts at a representative hot-path call site:
    [null_sink] is the residual cost on an untraced run (one load, one
    branch, no allocation), [ring_sink] the cost of tracing into a
    bounded 64 Ki ring. *)

type classify_bench = {
  classify_disabled : micro;  (** null sink: one load + branch, classifier never runs *)
  classify_enabled : micro;  (** kind + correlation id computed, event emitted to a ring *)
}

val classify_bench : timer:(unit -> float) -> ops:int -> classify_bench
(** The op-id plumbing at a [Net]-style traced send point: the payload
    classifier that computes the typed message kind and correlation id
    runs only inside the enabled-tracer branch, so [classify_disabled]
    must stay within noise of {!trace_emit}'s null sink — carrying
    correlation ids through messages costs nothing when tracing is off. *)

type telemetry_bench = {
  probe_disabled : micro;  (** detached breakdown: one load + branch per site *)
  probe_enabled : micro;  (** attached: two per-entity hashtable bumps *)
  snapshot : micro;  (** one sampler visit: occupancy + registry dump *)
}

val telemetry_bench : timer:(unit -> float) -> ops:int -> telemetry_bench
(** Telemetry overhead at its two cost centres: the per-message guarded
    breakdown probe on the server hot path (disabled must stay within
    noise of free — same pattern as {!trace_emit}'s null sink), and the
    per-window sampler snapshot (run at [ops / 1000], it is ~1000x the
    probe cost and off the per-message path entirely). *)

type dispatch_bench = {
  dispatch_disabled : micro;  (** null recorder: one load + branch per event *)
  dispatch_enabled : micro;  (** full begin/end accounting per event *)
}

val engine_dispatch : timer:(unit -> float) -> ops:int -> dispatch_bench
(** The engine's single dispatch site driven by self-rescheduling no-op
    events: [dispatch_disabled] is the residual the profiler guard leaves
    on an unprofiled run (the same shape as {!trace_emit}'s null sink and
    {!telemetry_bench}'s disabled probe) and must stay within noise of the
    bare {!event_queue_push_pop}; [dispatch_enabled] is the full
    per-event accounting cost. *)

val lease_throughput :
  timer:(unit -> float) -> n_clients:int -> duration:Simtime.Time.Span.t -> throughput
(** Run the standard Poisson V workload end to end and report simulated
    seconds advanced per wallclock second. *)

type hotspot = {
  h_center : string;  (** {!Profile.Center.name} slug *)
  h_wall_pct : float;  (** share of total wall time, in percent (0–100) *)
  h_hits : int;
}

val lease_hotspots :
  timer:(unit -> float) -> n_clients:int -> duration:Simtime.Time.Span.t -> hotspot list
(** One profiled run of the {!lease_throughput} workload; non-empty cost
    centers, hottest first. *)

type domain_point = {
  d_domains : int;
  d_sim_seconds : float;
  d_wall_seconds : float;
  d_sim_sec_per_wall_sec : float;
}

val split_throughput :
  timer:(unit -> float) ->
  n_clients:int ->
  n_shards:int ->
  domains:int ->
  duration:Simtime.Time.Span.t ->
  domain_point
(** One point of the parallel-deployment sweep: the standard Poisson V
    workload through [Shard.Deploy.run_split] at a fixed shard count,
    executed on [domains] OCaml domains.  Every point runs the identical
    seeded sub-simulations, so rate ratios between points measure parallel
    speedup alone. *)

val domain_counts : int list
(** The standard domain axis: 1, 2, 4, 8. *)

val split_shards : int
(** Shard count the domain sweep pins (8), so every domain count divides
    the shards evenly. *)

val client_counts : int list
(** The standard N axis: 1, 10, 100, 1000, 10000. *)

val sweep_duration_s : base_s:float -> int -> float
(** Simulated seconds to run at N clients: [base_s] through N = 100, then
    scaled by [100 / N] so the event count stays roughly flat across the
    big end of the axis. *)

(** {1 Perf-regression gate} — compares the end-to-end sweep of two
    BENCH_core.json documents. *)

type gate_point = {
  p_clients : int;
  p_baseline : float;  (** sim-s per wall-s in the baseline document *)
  p_current : float;
  p_ratio : float;  (** current / baseline; < 1 is a slowdown *)
}

type gate_result = {
  g_points : gate_point list;  (** common sweep points, baseline order *)
  g_worst : gate_point option;  (** lowest ratio *)
  g_pass : bool;  (** worst ratio >= tolerance *)
}

val gate_compare :
  tolerance:float -> baseline:string -> current:string -> (gate_result, string) result
(** [gate_compare ~tolerance ~baseline ~current] matches the [end_to_end]
    rows of the two JSON documents on [n_clients] and fails when any
    common point's [sim_sec_per_wall_sec] ratio drops below [tolerance]
    (e.g. 0.75 = fail on a >25% regression).  Errors on unparsable
    documents or when no sweep points are shared.  Raises
    [Invalid_argument] unless [tolerance] is in (0, 1]. *)

(** {1 Parallel-speedup gate} — checks the domain_sweep section of a
    BENCH_core.json document against a minimum speedup. *)

type speedup_result = {
  su_host_cores : int;  (** cores recorded by the run that produced the doc *)
  su_domains : int;  (** the parallel point checked (typically 4) *)
  su_base : float;  (** sim-s per wall-s at domains = 1 *)
  su_parallel : float;  (** sim-s per wall-s at [su_domains] *)
  su_speedup : float;  (** [su_parallel /. su_base] *)
  su_enforced : bool;  (** host had >= [su_domains] cores, threshold applied *)
  su_pass : bool;  (** true when not enforced, or speedup >= minimum *)
}

val speedup_gate :
  min_speedup:float -> at_domains:int -> current:string -> (speedup_result option, string) result
(** [speedup_gate ~min_speedup ~at_domains ~current] reads [current]'s
    [domain_sweep] section and compares the rate at [at_domains] domains
    against the rate at 1.  The threshold is enforced only when the
    recording host had at least [at_domains] cores — fewer cores
    time-slice the domains and cannot express the speedup — otherwise the
    result reports [su_enforced = false] and passes.  [Ok None] when the
    document has no [domain_sweep] section (documents predating it).
    Raises [Invalid_argument] when [min_speedup] is not positive or
    [at_domains] < 2. *)
