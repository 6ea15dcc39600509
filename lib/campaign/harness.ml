type result = {
  outcome : Runner.outcome;
  shrunk : Schedule.t option;
  shrink_runs : int;
}

type summary = {
  seed : int;
  schedules : int;
  clean : int;
  degraded : int;
  safety : int;
  results : result list;
}

let run ?(shrink = true) ~seed ~schedules () =
  let scheds = Gen.schedules ~seed ~n:schedules in
  let results =
    List.map
      (fun schedule ->
        let outcome = Runner.run schedule in
        match outcome.Runner.classification with
        | Runner.Safety when shrink ->
          let still_fails s = (Runner.run s).Runner.classification = Runner.Safety in
          let shrunk, shrink_runs = Shrink.minimize ~still_fails schedule in
          { outcome; shrunk = Some shrunk; shrink_runs }
        | _ -> { outcome; shrunk = None; shrink_runs = 0 })
      scheds
  in
  let count c =
    List.length
      (List.filter (fun r -> r.outcome.Runner.classification = c) results)
  in
  {
    seed;
    schedules;
    clean = count Runner.Clean;
    degraded = count Runner.Degraded;
    safety = count Runner.Safety;
    results;
  }

let has_safety s = s.safety > 0

let result_to_json r =
  Trace.Json.Obj
    [
      ("outcome", Runner.to_json r.outcome);
      ( "shrunk",
        match r.shrunk with Some s -> Schedule.to_json s | None -> Trace.Json.Null );
      ("shrink_runs", Trace.Json.Num (float_of_int r.shrink_runs));
    ]

let to_json s =
  Trace.Json.Obj
    [
      ("seed", Trace.Json.Num (float_of_int s.seed));
      ("schedules", Trace.Json.Num (float_of_int s.schedules));
      ("clean", Trace.Json.Num (float_of_int s.clean));
      ("degraded", Trace.Json.Num (float_of_int s.degraded));
      ("safety", Trace.Json.Num (float_of_int s.safety));
      ("results", Trace.Json.Arr (List.map result_to_json s.results));
    ]

let pp ppf s =
  Format.fprintf ppf "campaign seed=%d schedules=%d: %d clean, %d degraded, %d safety@."
    s.seed s.schedules s.clean s.degraded s.safety;
  List.iter
    (fun r ->
      let o = r.outcome in
      let sched = o.Runner.schedule in
      Format.fprintf ppf "  #%d %-8s %s n=%d%s d=%gs term=%gs loss=%g faults=%d ops=%d dropped=%d@."
        sched.Schedule.index
        (Runner.classification_name o.Runner.classification)
        (Experiments.V_trace.kind_name sched.Schedule.workload)
        sched.Schedule.n_clients
        (if sched.Schedule.n_shards > 1 then Printf.sprintf " shards=%d" sched.Schedule.n_shards
         else "")
        sched.Schedule.duration_s sched.Schedule.term_s sched.Schedule.loss
        (List.length sched.Schedule.faults)
        o.Runner.ops_issued o.Runner.dropped_ops;
      let t = o.Runner.telemetry in
      if t.Telemetry.Residual.windows > 0 then
        Format.fprintf ppf
          "      telemetry: %d windows (%d flagged), load %.3f msg/s measured vs %.3f \
           predicted, worst residual %+.0f%% at t=%.0fs@."
          t.Telemetry.Residual.windows t.Telemetry.Residual.flagged_windows
          t.Telemetry.Residual.mean_measured_load t.Telemetry.Residual.mean_predicted_load
          (100. *. t.Telemetry.Residual.worst_load_residual)
          t.Telemetry.Residual.worst_window_t;
      (match o.Runner.worst_write with
      | Some w -> Format.fprintf ppf "      worst %s@." w
      | None -> ());
      (match o.Runner.first_violation with
      | Some v -> Format.fprintf ppf "      violation: %s@." v
      | None -> ());
      match r.shrunk with
      | Some m ->
        Format.fprintf ppf "      minimal reproducer (%d faults, %d reruns):@."
          (List.length m.Schedule.faults) r.shrink_runs;
        Format.fprintf ppf "        %s@." (Schedule.to_command m)
      | None -> ())
    s.results
