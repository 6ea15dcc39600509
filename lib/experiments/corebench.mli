(** Simulation-core measurements that the repo benchmark ([perfbench/])
    and the profiler's overhead test reuse: the event-queue and
    engine-dispatch micros, and one end-to-end sweep point in
    simulated seconds per wallclock second.

    Every function takes [timer], a monotonic wallclock in seconds
    (e.g. [Unix.gettimeofday]) — this library stays clock-agnostic. *)

type micro = { ops : int; elapsed_s : float; ops_per_sec : float }

type throughput = {
  n_clients : int;
  sim_seconds : float;
  wall_seconds : float;
  sim_sec_per_wall_sec : float;
}

val event_queue_push_pop : timer:(unit -> float) -> ops:int -> micro

type dispatch_bench = {
  dispatch_disabled : micro;  (** null recorder: one load + branch per event *)
  dispatch_enabled : micro;  (** full begin/end accounting per event *)
}

val engine_dispatch : timer:(unit -> float) -> ops:int -> dispatch_bench
(** The engine's single dispatch site driven by self-rescheduling no-op
    events: [dispatch_disabled] is the residual the profiler guard leaves
    on an unprofiled run and must stay within noise of the bare
    {!event_queue_push_pop}; [dispatch_enabled] is the full per-event
    accounting cost. *)

val sweep_config : Leases.Config.t
(** The configuration {!lease_throughput} runs: the default with
    piggyback extensions off. *)

val lease_throughput :
  timer:(unit -> float) -> n_clients:int -> duration:Simtime.Time.Span.t -> throughput
(** Run the standard Poisson V workload end to end and report simulated
    seconds advanced per wallclock second. *)
