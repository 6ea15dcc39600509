(* Simulation-core measurements reused by the repo benchmark (perfbench/)
   and the profiler's overhead test: the event-queue and engine-dispatch
   micros, and end-to-end simulated-seconds-per-wallclock-second
   throughput at one sweep point. *)

open Simtime

type micro = { ops : int; elapsed_s : float; ops_per_sec : float }

type throughput = {
  n_clients : int;
  sim_seconds : float;
  wall_seconds : float;
  sim_sec_per_wall_sec : float;
}

let finish ~timer ~started ~ops =
  let elapsed_s = Float.max 1e-9 (timer () -. started) in
  { ops; elapsed_s; ops_per_sec = float_of_int ops /. elapsed_s }

(* One op = one push plus its eventual pop, over a churning 1k-event window. *)
let event_queue_push_pop ~timer ~ops =
  let q = Event_queue.create () in
  let window = 1_000 in
  for i = 0 to window - 1 do
    ignore (Event_queue.push q ~at:(Time.of_us ((i * 7919) mod 1_000_000)) i)
  done;
  let started = timer () in
  for i = 0 to ops - 1 do
    ignore (Event_queue.pop q);
    ignore (Event_queue.push q ~at:(Time.of_us (1_000_000 + (i * 7919 mod 1_000_000))) i)
  done;
  let rec drain () = match Event_queue.pop q with Some _ -> drain () | None -> () in
  drain ();
  finish ~timer ~started ~ops

type dispatch_bench = { dispatch_disabled : micro; dispatch_enabled : micro }

(* One op = one engine dispatch of a no-op callback that schedules its
   successor — the pure per-event cost of [Engine.step]'s single dispatch
   site.  Disabled measures the residual left by the profiler guard (one
   load and one branch); enabled measures full begin/end accounting with a
   cadence far past the run so sampling never fires. *)
let engine_dispatch_once ~timer ~ops profiler =
  let engine = Engine.create () in
  (match profiler with Some p -> Engine.set_profiler engine p | None -> ());
  let remaining = ref ops in
  let rec event () =
    if !remaining > 0 then begin
      decr remaining;
      ignore (Engine.schedule_after engine (Time.Span.of_us 1) event)
    end
  in
  ignore (Engine.schedule_after engine (Time.Span.of_us 1) event);
  let started = timer () in
  Engine.run engine;
  (match profiler with Some p -> Profile.Recorder.stop p | None -> ());
  finish ~timer ~started ~ops

let engine_dispatch ~timer ~ops =
  let dispatch_disabled = engine_dispatch_once ~timer ~ops None in
  let dispatch_enabled =
    engine_dispatch_once ~timer ~ops (Some (Profile.Recorder.create ~interval_s:1e12 ~timer ()))
  in
  { dispatch_disabled; dispatch_enabled }

(* The end-to-end sweep runs with piggyback extensions disabled
   ([batch_extensions = false]).  Each piggybacked file multiplies a
   miss into an extra server-side grant, so with unbounded batching (the
   default) the sweep mostly measures how many free renewals the workload
   generator happens to piggyback rather than the per-operation core cost
   the sweep exists to track.  On the poisson sweep workload the batching
   buys almost nothing anyway — 77_381 misses unbounded vs 77_507 with it
   off at 10k clients (+0.16%) — while costing ~1.7x the wall time.
   Protocol-quality experiments (term sweeps, Table 2) keep the default. *)
let sweep_config = { Leases.Config.default with batch_extensions = false }

let lease_throughput ~timer ~n_clients ~duration =
  let trace = (V_trace.poisson ~clients:n_clients ~duration ()).V_trace.trace in
  let setup =
    Runner.lease_setup ~config:sweep_config ~n_clients ~term:(Analytic.Model.Finite 10.) ()
  in
  let started = timer () in
  let m = Runner.run_lease setup trace in
  let wall_seconds = Float.max 1e-9 (timer () -. started) in
  let sim_seconds = m.Leases.Metrics.sim_duration in
  { n_clients; sim_seconds; wall_seconds; sim_sec_per_wall_sec = sim_seconds /. wall_seconds }
