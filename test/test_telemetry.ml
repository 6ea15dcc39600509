(* Telemetry subsystem tests: window accounting against cumulative
   counters, export determinism across identical seeded runs, the
   steady-state residual against the Section 3.1 model, and the
   degradation/recovery signature of a server crash in per-window
   residuals. *)

let span_sec = Simtime.Time.Span.of_sec

let run_sampled ?(interval_s = 10.) ?(n_clients = 2) ?(duration = 120.) ?(seed = 7L)
    ?(faults = []) ?detail () =
  let trace =
    (Experiments.V_trace.poisson ~seed ~clients:n_clients ~duration:(span_sec duration) ())
      .Experiments.V_trace.trace
  in
  let setup =
    Experiments.Runner.lease_setup ~n_clients ~term:(Analytic.Model.Finite 10.) ()
  in
  let sampler = Telemetry.Sampler.create ~interval_s ?detail () in
  let world = ref None in
  let setup =
    { setup with
      Leases.Sim.seed;
      faults;
      on_instruments =
        (fun w tally ->
          world := Some w;
          Telemetry.Sampler.attach sampler w tally);
    }
  in
  let outcome = Leases.Sim.run setup ~trace in
  Telemetry.Sampler.finalize sampler;
  (sampler, setup, outcome, Option.get !world)

(* The residual parameters of a run: its term is the config's. *)
let params_of (setup : Leases.Sim.setup) =
  Telemetry.Residual.params_of_config ~n_clients:setup.n_clients ~m_prop:setup.m_prop
    ~m_proc:setup.m_proc setup.config

(* Every window's counter deltas must sum to the final cumulative dump, and
   the window chain must tile the run without gaps. *)
let test_window_accounting () =
  let sampler, _, _, world = run_sampled ~detail:true () in
  let windows = Telemetry.Sampler.windows sampler in
  Alcotest.(check bool) "closed several windows" true (List.length windows >= 12);
  List.iteri
    (fun i (w : Telemetry.Sampler.window) ->
      Alcotest.(check int) "indices sequential" i w.Telemetry.Sampler.w_index;
      Alcotest.(check bool) "window has positive width" true
        (w.Telemetry.Sampler.t_end > w.Telemetry.Sampler.t_start))
    windows;
  List.iteri
    (fun i (w : Telemetry.Sampler.window) ->
      if i > 0 then
        let prev = List.nth windows (i - 1) in
        Alcotest.(check (float 1e-9)) "windows tile the run" prev.Telemetry.Sampler.t_end
          w.Telemetry.Sampler.t_start)
    windows;
  let last = List.nth windows (List.length windows - 1) in
  let summed = Hashtbl.create 64 in
  List.iter
    (fun (w : Telemetry.Sampler.window) ->
      List.iter
        (fun (name, d) ->
          Hashtbl.replace summed name (d + Option.value (Hashtbl.find_opt summed name) ~default:0))
        (Telemetry.Sampler.deltas w))
    windows;
  List.iter
    (fun (name, total) ->
      Alcotest.(check int) (Printf.sprintf "deltas sum to cumulative %s" name) total
        (Option.value (Hashtbl.find_opt summed name) ~default:0))
    (Telemetry.Sampler.counters last);
  (* scalar deltas agree with the merged registry they were derived from *)
  let total_of suffix =
    List.fold_left
      (fun acc (name, v) ->
        if String.length name >= String.length suffix
           && String.sub name (String.length name - String.length suffix) (String.length suffix)
              = suffix
        then acc + v
        else acc)
      0 (Telemetry.Sampler.counters last)
  in
  let window_total f = List.fold_left (fun acc w -> acc + f w) 0 windows in
  Alcotest.(check int) "hits" (total_of "/hits")
    (window_total (fun w -> w.Telemetry.Sampler.hits));
  Alcotest.(check int) "misses" (total_of "/misses")
    (window_total (fun w -> w.Telemetry.Sampler.misses));
  Alcotest.(check int) "reads = hits + misses"
    (total_of "/hits" + total_of "/misses")
    (window_total (fun w -> w.Telemetry.Sampler.reads));
  (* the per-entity breakdown agrees with itself across axes: requests
     attributed per file and per client are the same requests *)
  let entity_total label =
    window_total (fun w ->
        match List.assoc_opt label (Telemetry.Sampler.by_entity w) with
        | None -> 0
        | Some pairs -> List.fold_left (fun acc (_, d) -> acc + d) 0 pairs)
  in
  Alcotest.(check int) "reads by file = reads by client" (entity_total "reads/file")
    (entity_total "reads/client");
  Alcotest.(check bool) "breakdown saw the reads" true (entity_total "reads/client" > 0);
  (* the breakdown attached by the sampler is the one the server used *)
  (match Leases.Server.breakdown world.Leases.Sim.servers.(0) with
  | None -> Alcotest.fail "sampler left no breakdown on the server"
  | Some b ->
    Alcotest.(check int) "server-side axis total matches"
      (Leases.Breakdown.total b.Leases.Breakdown.reads_by_file)
      (entity_total "reads/file"));
  (* gauges at the final window: the run has drained *)
  Alcotest.(check int) "no pending writes after drain" 0 last.Telemetry.Sampler.pending_writes;
  Alcotest.(check int) "no in-flight messages after drain" 0
    last.Telemetry.Sampler.in_flight_msgs

(* Two identical seeded runs must export byte-identical reports. *)
let test_export_determinism () =
  let report kind =
    let sampler, setup, _, _ = run_sampled ~detail:true () in
    let params = params_of setup in
    match kind with
    | `Json -> Telemetry.Report.to_json_string ~params sampler
    | `Csv -> Telemetry.Report.to_csv_string ~params sampler
  in
  Alcotest.(check string) "json byte-identical" (report `Json) (report `Json);
  Alcotest.(check string) "csv byte-identical" (report `Csv) (report `Csv);
  (* and the JSON round-trips through the viewer's parser *)
  match Telemetry.Report.of_string (report `Json) with
  | Error why -> Alcotest.failf "report does not parse back: %s" why
  | Ok view ->
    Alcotest.(check int) "view window count"
      (List.length view.Telemetry.Report.v_windows)
      view.Telemetry.Report.v_summary.Telemetry.Residual.windows

(* A long steady no-fault run must match the Section 3.1 prediction within
   the documented pooled tolerance. *)
let test_steady_residual () =
  let sampler, setup, _, _ =
    run_sampled ~interval_s:30. ~n_clients:1 ~duration:1500. ()
  in
  let params = params_of setup in
  let summary =
    Telemetry.Residual.summarize (Telemetry.Residual.evaluate params sampler)
  in
  let steady = summary.Telemetry.Residual.steady_load_residual in
  if Float.abs steady > 0.25 then
    Alcotest.failf "steady-state residual %+.1f%% exceeds 25%%" (100. *. steady);
  Alcotest.(check bool) "measured some load" true
    (summary.Telemetry.Residual.mean_measured_load > 0.)

(* A server crash must show up as flagged degradation (no consistency
   messages while the model still predicts load) followed by a flagged
   recovery spike, and the tail of the run must settle back under the
   per-window tolerance. *)
let test_fault_degradation_and_recovery () =
  let faults =
    [ Leases.Sim.Crash_server { at = Simtime.Time.of_sec 60.; duration = span_sec 60. } ]
  in
  let sampler, setup, _, _ =
    run_sampled ~interval_s:30. ~n_clients:4 ~duration:300. ~faults ()
  in
  let params = params_of setup in
  let evals = Telemetry.Residual.evaluate params sampler in
  let during_fault =
    List.filter
      (fun (e : Telemetry.Residual.eval) ->
        let w = e.Telemetry.Residual.e_window in
        w.Telemetry.Sampler.t_end > 60. && w.Telemetry.Sampler.t_end <= 120.)
      evals
  in
  Alcotest.(check bool) "a fault window is flagged with collapsed load" true
    (List.exists
       (fun (e : Telemetry.Residual.eval) ->
         e.Telemetry.Residual.flagged && e.Telemetry.Residual.load_residual < -0.9)
       during_fault);
  Alcotest.(check bool) "a fault window sees the server down" true
    (List.exists
       (fun (e : Telemetry.Residual.eval) ->
         not e.Telemetry.Residual.e_window.Telemetry.Sampler.server_up)
       during_fault);
  let after =
    List.filter
      (fun (e : Telemetry.Residual.eval) ->
        e.Telemetry.Residual.e_window.Telemetry.Sampler.t_end > 120.)
      evals
  in
  Alcotest.(check bool) "a recovery window is flagged with a positive spike" true
    (List.exists
       (fun (e : Telemetry.Residual.eval) ->
         e.Telemetry.Residual.flagged && e.Telemetry.Residual.load_residual > 1.)
       after);
  Alcotest.(check bool) "the tail settles back under tolerance" true
    (List.exists
       (fun (e : Telemetry.Residual.eval) ->
         (not e.Telemetry.Residual.flagged)
         && e.Telemetry.Residual.e_window.Telemetry.Sampler.reads > 0)
       after);
  (* queued work builds up while the server is down and drains afterwards *)
  let peak_blocked =
    List.fold_left
      (fun acc (e : Telemetry.Residual.eval) ->
        let w = e.Telemetry.Residual.e_window in
        Stdlib.max acc (w.Telemetry.Sampler.client_inflight + w.Telemetry.Sampler.client_queued_ops))
      0 during_fault
  in
  Alcotest.(check bool) "client work piles up during the outage" true (peak_blocked > 0);
  match List.rev evals with
  | last :: _ ->
    let w = last.Telemetry.Residual.e_window in
    Alcotest.(check int) "blocked work drains by the end" 0
      (w.Telemetry.Sampler.client_inflight + w.Telemetry.Sampler.client_queued_ops)
  | [] -> Alcotest.fail "no windows"

(* The sampler must not perturb the simulation: metrics with and without
   telemetry attached are identical. *)
let test_sampler_is_passive () =
  let run attach =
    let trace =
      (Experiments.V_trace.poisson ~seed:5L ~clients:2 ~duration:(span_sec 90.) ())
        .Experiments.V_trace.trace
    in
    let setup = Experiments.Runner.lease_setup ~n_clients:2 ~term:(Analytic.Model.Finite 10.) () in
    let setup = { setup with Leases.Sim.seed = 5L } in
    let setup =
      if attach then
        { setup with
          Leases.Sim.on_instruments =
            Telemetry.Sampler.attach (Telemetry.Sampler.create ~interval_s:7. ())
        }
      else setup
    in
    Leases.Metrics.to_json (Leases.Sim.run setup ~trace).Leases.Sim.metrics
  in
  Alcotest.(check string) "metrics unchanged by sampling" (run false) (run true)

(* What an attached sampler does change: at each boundary
   [Server.snapshot] sweeps the lease table, so an expired record is reaped
   (and its [lease-expire] emitted) at the boundary rather than at the
   server's next access or periodic sweep, and the boundary events add
   engine heartbeats.  Equivalent to [leases-sim -p leases -t 10 -n 4 -d 300
   -s 5 --trace F] with and without [--telemetry 2.5]: the metrics are
   identical, both traces hold the same 2 653 [lease-expire] events at
   different instants, there are 246 heartbeats without the sampler and 293
   with it, and every other line is identical. *)
let test_sampler_trace_footprint () =
  let run attach =
    let trace =
      (Experiments.V_trace.poisson ~seed:5L ~clients:4 ~duration:(span_sec 300.) ())
        .Experiments.V_trace.trace
    in
    let events = ref [] in
    let tracer =
      { Trace.Sink.enabled = true; push = (fun e -> events := e :: !events); flush = ignore }
    in
    let setup =
      { (Experiments.Runner.lease_setup ~n_clients:4 ~term:(Analytic.Model.Finite 10.) ()) with
        Leases.Sim.seed = 5L;
        tracer }
    in
    let setup =
      if attach then
        { setup with
          Leases.Sim.on_instruments =
            Telemetry.Sampler.attach (Telemetry.Sampler.create ~interval_s:2.5 ()) }
      else setup
    in
    let metrics = Leases.Metrics.to_json (Leases.Sim.run setup ~trace).Leases.Sim.metrics in
    let expiries, heartbeats, rest =
      List.fold_left
        (fun (expiries, heartbeats, rest) (e : Trace.Event.t) ->
          match e.Trace.Event.ev with
          | Trace.Event.Lease_expire _ -> (e :: expiries, heartbeats, rest)
          | Trace.Event.Heartbeat _ -> (expiries, heartbeats + 1, rest)
          | _ -> (expiries, heartbeats, Trace.Codec.encode e :: rest))
        ([], 0, []) !events
    in
    (metrics, expiries, heartbeats, rest)
  in
  let m0, x0, h0, r0 = run false and m1, x1, h1, r1 = run true in
  Alcotest.(check string) "metrics unchanged" m0 m1;
  Alcotest.(check int) "lease-expire events without telemetry" 2653 (List.length x0);
  Alcotest.(check int) "lease-expire events with telemetry" 2653 (List.length x1);
  let reaped x =
    List.sort compare
      (List.map (fun (e : Trace.Event.t) -> Trace.Codec.encode { e with at = 0. }) x)
  in
  Alcotest.(check (list string)) "the same records reaped" (reaped x0) (reaped x1);
  let instants x = List.map (fun (e : Trace.Event.t) -> e.Trace.Event.at) x in
  Alcotest.(check bool) "reaped at different instants" true (instants x0 <> instants x1);
  Alcotest.(check int) "heartbeats without telemetry" 246 h0;
  Alcotest.(check int) "heartbeats with telemetry" 293 h1;
  Alcotest.(check (list string)) "every other line identical" r0 r1

(* The export golden's run: 5 clients sampled every 2.5 s under a server
   crash, a client crash and clock faults on both sides. *)
let run_golden ?detail () =
  let at = Simtime.Time.of_sec in
  let faults =
    [
      Leases.Sim.Crash_server { at = at 40.; duration = span_sec 15. };
      Leases.Sim.Crash_client { client = 3; at = at 70.; duration = span_sec 20. };
      Leases.Sim.Client_drift { client = 1; at = at 10.; drift = 0.001 };
      Leases.Sim.Server_step { shard = 0; at = at 95.; step = Simtime.Time.Span.of_ms 30. };
    ]
  in
  run_sampled ~interval_s:2.5 ~n_clients:5 ~duration:120. ~seed:13L ~faults ?detail ()

(* Pins the full JSON export of that run: cumulative counters, per-window
   deltas, per-entity breakdowns and per-host skews. *)
let test_export_golden () =
  let sampler, setup, _, _ = run_golden ~detail:true () in
  let windows = Telemetry.Sampler.windows sampler in
  let some f = List.exists f windows in
  Alcotest.(check bool) "deltas recorded" true (some (fun w -> Telemetry.Sampler.deltas w <> []));
  Alcotest.(check bool) "by_entity recorded" true
    (some (fun w -> Telemetry.Sampler.by_entity w <> []));
  Alcotest.(check bool) "skews recorded" true
    (some (fun w -> Telemetry.Sampler.max_abs_skew w > 0.));
  let params = params_of setup in
  Alcotest.(check string) "export MD5" "4190426f37829a7caf34c9be7fa821af"
    (Digest.to_hex (Digest.string (Telemetry.Report.to_json_string ~params sampler)));
  Alcotest.(check string) "CSV export MD5" "91ef488243689222d8b357669860df94"
    (Digest.to_hex (Digest.string (Telemetry.Report.to_csv_string ~params sampler)));
  (* leases-sim streams the JSON export to its file *)
  let path = Filename.temp_file "leases_telemetry" ".json" in
  Out_channel.with_open_bin path (fun oc -> Telemetry.Report.output_json oc ~params sampler);
  let streamed = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "streamed export = to_json_string"
    (Telemetry.Report.to_json_string ~params sampler)
    streamed;
  (* the export carries only the last window's cumulative counters *)
  let counters =
    String.concat "\n"
      (List.map
         (fun w ->
           String.concat " "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Telemetry.Sampler.counters w)))
         windows)
  in
  Alcotest.(check string) "every window's counters MD5" "0f21fee05bd5eb49be882fa205b993ee"
    (Digest.to_hex (Digest.string counters))

(* A sampler without detail keeps every other field: on the export
   golden's faulted run, each of its windows equals the detailed sampler's
   in everything but [detail], which is empty, so the residual summary is
   the same.  Only the detailed one installs a breakdown on the server,
   and the exports refuse the lean one. *)
let test_lean_windows () =
  let lean, setup, _, lean_world = run_golden () in
  let full, _, _, full_world = run_golden ~detail:true () in
  let lean_windows = Telemetry.Sampler.windows lean in
  let full_windows = Telemetry.Sampler.windows full in
  Alcotest.(check int) "window count" (List.length full_windows) (List.length lean_windows);
  List.iteri
    (fun i ((l : Telemetry.Sampler.window), (f : Telemetry.Sampler.window)) ->
      Alcotest.(check bool)
        (Printf.sprintf "window %d equals the detailed one but for its detail" i)
        true
        ({ l with Telemetry.Sampler.detail = f.Telemetry.Sampler.detail } = f);
      Alcotest.(check bool)
        (Printf.sprintf "window %d records no detail" i)
        true
        Telemetry.Sampler.(counters l = [] && deltas l = [] && skews l = [] && by_entity l = []))
    (List.combine lean_windows full_windows);
  Alcotest.(check bool) "the detailed windows carry skews" true
    (List.exists (fun w -> Telemetry.Sampler.max_abs_skew w > 0.) full_windows);
  let params = params_of setup in
  let summary sampler =
    Trace.Json.to_string
      (Telemetry.Report.summary_to_json
         (Telemetry.Residual.summarize (Telemetry.Residual.evaluate params sampler)))
  in
  Alcotest.(check string) "residual summary" (summary full) (summary lean);
  Alcotest.(check bool) "no breakdown without detail" true
    (Option.is_none (Leases.Server.breakdown lean_world.Leases.Sim.servers.(0)));
  Alcotest.(check bool) "a breakdown with detail" true
    (Option.is_some (Leases.Server.breakdown full_world.Leases.Sim.servers.(0)));
  let refused export =
    match export ~params lean with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "JSON export refuses a lean sampler" true
    (refused Telemetry.Report.to_json_string);
  Alcotest.(check bool) "CSV export refuses a lean sampler" true
    (refused Telemetry.Report.to_csv_string)

(* Boundaries land on the engine's 1 us grid, so an interval below one
   tick is refused instead of closing one window per microsecond: by
   [Sampler.create], and by leases-sim as a flag error before any run. *)
let test_sub_tick_interval () =
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  let refused interval_s =
    match Telemetry.Sampler.create ~interval_s () with
    | _ -> None
    | exception Invalid_argument why -> Some why
  in
  List.iter
    (fun interval_s ->
      match refused interval_s with
      | None -> Alcotest.failf "interval %g s accepted" interval_s
      | Some why ->
        Alcotest.(check bool)
          (Printf.sprintf "interval %g s names the tick: %s" interval_s why)
          true
          (contains why "1 us tick"))
    [ 4e-7; 1e-9; 0.; -1. ];
  Alcotest.(check bool) "a NaN interval is refused" true (refused Float.nan <> None);
  Alcotest.(check bool) "one tick is accepted" true (refused 1e-6 = None);
  let simulate =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/simulate.exe"
  in
  let err = Filename.temp_file "leases_sim" ".err" in
  let code =
    Sys.command
      (Filename.quote_command simulate ~stdout:Filename.null ~stderr:err
         [ "-p"; "leases"; "-n"; "2"; "-d"; "30"; "--telemetry"; "1e-9" ])
  in
  let message = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  Alcotest.(check int) "leases-sim exits with its flag-error status" 124 code;
  Alcotest.(check string) "leases-sim names the flag and the tick"
    "leases-sim: --telemetry 1e-09: the interval must be at least the engine's 1 us tick, the \
     grid that window boundaries land on\n"
    message

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Telemetry.Report.sparkline []);
  let flat = Telemetry.Report.sparkline [ 1.; 1.; 1. ] in
  Alcotest.(check int) "flat series renders three cells" 9 (String.length flat);
  let ramp = Telemetry.Report.sparkline [ 0.; 1.; 2.; 3. ] in
  Alcotest.(check bool) "ramp ends higher than it starts" true
    (String.sub ramp 0 3 <> String.sub ramp 9 3)

let () =
  Alcotest.run "telemetry"
    [
      ( "sampler",
        [
          Alcotest.test_case "window accounting" `Quick test_window_accounting;
          Alcotest.test_case "passive" `Quick test_sampler_is_passive;
          Alcotest.test_case "trace footprint" `Quick test_sampler_trace_footprint;
          Alcotest.test_case "sub-tick interval refused" `Quick test_sub_tick_interval;
          Alcotest.test_case "lean windows = detailed windows" `Quick test_lean_windows;
        ] );
      ( "export",
        [
          Alcotest.test_case "determinism" `Quick test_export_determinism;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
          Alcotest.test_case "golden: faulted 5-client export" `Quick test_export_golden;
        ] );
      ( "residuals",
        [
          Alcotest.test_case "steady state" `Slow test_steady_residual;
          Alcotest.test_case "fault degradation" `Quick test_fault_degradation_and_recovery;
        ] );
    ]
