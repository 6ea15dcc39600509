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

(* The schedule through [Deploy.run], one server or K.  The run's tracer
   feeds the invariant checker and the critical-path analyzer live, and
   nothing is buffered; the checker takes its file owners from
   [Deploy.shard_map], the map the run itself places files with.  A
   sharded sampler's windows come shard by shard, so the telemetry summary
   pools them: each window is judged against its own shard's predicted
   load, and the pooled worst/steady residuals flag whichever shard
   diverges. *)
let run schedule =
  let setup = Schedule.deploy_setup schedule in
  let map = Shard.Deploy.shard_map setup in
  let checker =
    Trace.Checker.create
      ~servers:(Shard.Deploy.server_hosts setup)
      ~owner:(fun f -> Shard.Shard_map.owner map (Vstore.File_id.of_int f))
      ()
  in
  (* The outcome reads the analyzer's worst write and the sampler's
     residual summary: the analyzer follows only writes, and the sampler
     records no window detail. *)
  let analyzer = Trace.Critical_path.create ~worst:1 ~writes_only:true () in
  let sampler =
    Telemetry.Sampler.create ~interval_s:(telemetry_interval_s schedule.Schedule.duration_s) ()
  in
  let outcome =
    Shard.Deploy.run
      {
        setup with
        Shard.Deploy.tracer =
          Trace.Sink.tee [ Trace.Checker.sink checker; Trace.Critical_path.sink analyzer ];
        on_instruments = Telemetry.Sampler.attach sampler;
      }
      ~trace:(Schedule.trace schedule)
  in
  Telemetry.Sampler.finalize sampler;
  let m = outcome.Shard.Deploy.metrics in
  let report = Trace.Checker.report checker in
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
        (Oracle.Register_oracle.first_violation outcome.Shard.Deploy.oracle)
  in
  let classification =
    if oracle_violations > 0 || checker_violations > 0 then Safety
    else if m.Leases.Metrics.dropped_ops > 0 then Degraded
    else Clean
  in
  let residual_params =
    Telemetry.Residual.params_of_config ~n_clients:setup.n_clients ~m_prop:setup.m_prop
      ~m_proc:setup.m_proc setup.config
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
    worst_write =
      (* the causal explanation of the schedule's slowest completed write *)
      (match (Trace.Critical_path.report ~k:1 analyzer).Trace.Critical_path.r_worst with
      | w :: _ -> Some w.Trace.Critical_path.w_explain
      | [] -> None);
  }

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
