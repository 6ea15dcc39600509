type classification = Clean | Degraded | Safety

type outcome = {
  schedule : Schedule.t;
  classification : classification;
  oracle_violations : int;
  checker_violations : int;
  first_violation : string option;
  ops_issued : int;
  dropped_ops : int;
  commits : int;
  checked_events : int;
  telemetry : Telemetry.Residual.summary;
  worst_write : string option;
      (* critical-path explanation of the schedule's slowest completed
         write, e.g. which holder's expiry dominated and why *)
}

let classification_name = function
  | Clean -> "clean"
  | Degraded -> "degraded"
  | Safety -> "safety"

(* Telemetry windows per schedule: aim for ~24 windows over the workload
   but keep each wide enough (>= 2.5 s) that per-window counts are not
   all-noise, and never wider than the 30 s the standalone runs use.
   Sampling continues through the drain. *)
let telemetry_interval_s duration_s = Float.max 2.5 (Float.min 30. (duration_s /. 24.))

(* The schedule's trace observers, fed live from the run's tracer: the
   invariant checker and the critical-path analyzer.  Nothing is
   buffered. *)
let observe checker =
  let analyzer = Trace.Critical_path.create () in
  (Trace.Sink.tee [ Trace.Checker.sink checker; Trace.Critical_path.sink analyzer ], analyzer)

(* The causal explanation of the schedule's slowest completed write. *)
let worst_write_of analyzer =
  match (Trace.Critical_path.report ~k:1 analyzer).Trace.Critical_path.r_worst with
  | w :: _ -> Some w.Trace.Critical_path.w_explain
  | [] -> None

(* Classification and reporting shared by the single-server and sharded
   paths once each has produced metrics, a checker report, an oracle and a
   telemetry sampler.  A sharded sampler's windows come shard by shard, so
   its summary pools them: each window is judged against its own shard's
   predicted load, and the pooled worst/steady residuals flag whichever
   shard diverges. *)
let conclude ~schedule ~(m : Leases.Metrics.t) ~(report : Trace.Checker.report) ~oracle
    ~residual_params ~sampler ~worst_write =
  let oracle_violations = m.Leases.Metrics.oracle_violations in
  let checker_violations = List.length report.Trace.Checker.violations in
  let first_violation =
    match report.Trace.Checker.violations with
    | v :: _ -> Some (Format.asprintf "%a" Trace.Checker.pp_violation v)
    | [] ->
      Option.map
        (fun (file, version, at) ->
          Format.asprintf "oracle: stale read of file %d v%d completed at %a"
            (Vstore.File_id.to_int file) (Vstore.Version.to_int version) Simtime.Time.pp at)
        (Oracle.Register_oracle.first_violation oracle)
  in
  let classification =
    if oracle_violations > 0 || checker_violations > 0 then Safety
    else if m.Leases.Metrics.dropped_ops > 0 then Degraded
    else Clean
  in
  {
    schedule;
    classification;
    oracle_violations;
    checker_violations;
    first_violation;
    ops_issued = m.Leases.Metrics.ops_issued;
    dropped_ops = m.Leases.Metrics.dropped_ops;
    commits = m.Leases.Metrics.commits;
    checked_events = report.Trace.Checker.events;
    telemetry =
      Telemetry.Residual.summarize residual_params
        (Telemetry.Residual.evaluate residual_params sampler);
    worst_write;
  }

let run_single schedule =
  let trace = Schedule.trace schedule in
  let checker = Trace.Checker.create ~server:0 () in
  let tracer, analyzer = observe checker in
  let setup = Schedule.setup ~tracer schedule in
  let sampler =
    Telemetry.Sampler.create ~interval_s:(telemetry_interval_s schedule.Schedule.duration_s) ()
  in
  let setup = { setup with Leases.Sim.on_instruments = Telemetry.Sampler.attach sampler } in
  let outcome = Leases.Sim.run setup ~trace in
  Telemetry.Sampler.finalize sampler;
  let residual_params =
    Telemetry.Residual.params_of_setup
      ~term:(Analytic.Model.Finite schedule.Schedule.term_s) setup
  in
  conclude ~schedule ~m:outcome.Leases.Sim.metrics ~report:(Trace.Checker.report checker)
    ~oracle:outcome.Leases.Sim.oracle ~residual_params ~sampler
    ~worst_write:(worst_write_of analyzer)

let run_sharded schedule =
  let trace = Schedule.trace schedule in
  let setup = Schedule.deploy_setup schedule in
  let map = Shard.Deploy.shard_map setup in
  let checker =
    Trace.Checker.create
      ~servers:(Shard.Deploy.server_hosts setup)
      ~owner:(fun f -> Shard.Shard_map.owner map (Vstore.File_id.of_int f))
      ()
  in
  let tracer, analyzer = observe checker in
  let setup =
    {
      setup with
      Shard.Deploy.tracer;
      telemetry_interval_s = Some (telemetry_interval_s schedule.Schedule.duration_s);
    }
  in
  let outcome = Shard.Deploy.run setup ~trace in
  conclude ~schedule ~m:outcome.Shard.Deploy.metrics ~report:(Trace.Checker.report checker)
    ~oracle:outcome.Shard.Deploy.oracle
    ~residual_params:(Shard.Deploy.residual_params setup)
    ~sampler:(Option.get outcome.Shard.Deploy.telemetry)
    ~worst_write:(worst_write_of analyzer)

let run schedule =
  if schedule.Schedule.n_shards > 1 then run_sharded schedule else run_single schedule

let to_json o =
  Trace.Json.Obj
    [
      ("schedule", Schedule.to_json o.schedule);
      ("classification", Trace.Json.Str (classification_name o.classification));
      ("oracle_violations", Trace.Json.Num (float_of_int o.oracle_violations));
      ("checker_violations", Trace.Json.Num (float_of_int o.checker_violations));
      ( "first_violation",
        match o.first_violation with Some v -> Trace.Json.Str v | None -> Trace.Json.Null );
      ("ops_issued", Trace.Json.Num (float_of_int o.ops_issued));
      ("dropped_ops", Trace.Json.Num (float_of_int o.dropped_ops));
      ("commits", Trace.Json.Num (float_of_int o.commits));
      ("checked_events", Trace.Json.Num (float_of_int o.checked_events));
      ("telemetry", Telemetry.Report.summary_to_json o.telemetry);
      ( "worst_write",
        match o.worst_write with Some w -> Trace.Json.Str w | None -> Trace.Json.Null );
    ]
