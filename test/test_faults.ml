(* Section-5 fault-tolerance tests: the experiment drills must come out as
   the paper predicts, plus extra scripted edge cases around clock faults
   and recovery. *)

open Simtime

let sec = Time.of_sec
let span = Time.Span.of_sec
let file = Vstore.File_id.of_int

let read_op ~at ~client ~f =
  { Workload.Op.at = sec at; client; kind = Workload.Op.Read; file = f; temporary = false }

let write_op ~at ~client ~f =
  { Workload.Op.at = sec at; client; kind = Workload.Op.Write; file = f; temporary = false }

let test_drills_all_ok () =
  let r = Experiments.Faults.run () in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "drill %S behaves as the paper predicts" s.Experiments.Faults.name)
        true s.Experiments.Faults.ok)
    r.Experiments.Faults.scenarios

let test_write_wait_bounded_by_term () =
  (* whatever the crash duration, the write delay never exceeds the term
     (plus message time slack) *)
  List.iter
    (fun crash_duration ->
      let trace =
        Workload.Trace.of_ops [ read_op ~at:5. ~client:1 ~f:(file 0); write_op ~at:6. ~client:0 ~f:(file 0) ]
      in
      let setup =
        {
          (Experiments.Runner.lease_setup ~n_clients:2 ~term:(Analytic.Model.Finite 10.) ()) with
          Leases.Sim.faults =
            [ Leases.Sim.Crash_client { client = 1; at = sec 5.5; duration = span crash_duration } ];
          drain = span 300.;
        }
      in
      let m = Experiments.Runner.run_lease setup trace in
      let wait = Stats.Histogram.quantile m.Leases.Metrics.write_wait 1.0 in
      Alcotest.(check bool)
        (Printf.sprintf "wait %.2f bounded by term (crash %.0f s)" wait crash_duration)
        true
        (wait <= 10.5);
      Alcotest.(check int) "committed" 1 m.Leases.Metrics.commits)
    [ 1.; 30.; 200. ]

let test_partition_never_stale_leases () =
  (* reads by a partitioned leaseholder stay valid while the lease lasts
     and block (rather than go stale) after it expires *)
  let trace =
    Workload.Trace.of_ops
      [
        read_op ~at:4. ~client:1 ~f:(file 0);
        write_op ~at:6. ~client:0 ~f:(file 0);
        read_op ~at:10. ~client:1 ~f:(file 0);
        read_op ~at:20. ~client:1 ~f:(file 0);
      ]
  in
  let setup =
    {
      (Experiments.Runner.lease_setup ~n_clients:2 ~term:(Analytic.Model.Finite 10.) ()) with
      Leases.Sim.faults =
        [ Leases.Sim.Partition_clients { clients = [ 1 ]; at = sec 5.; duration = span 60. } ];
    }
  in
  let outcome = Leases.Sim.run setup ~trace in
  let m = outcome.Leases.Sim.metrics in
  Alcotest.(check int) "zero stale reads" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check int) "every read eventually answered" 3 m.Leases.Metrics.reads_completed;
  (* the read at 20 had to wait for the partition to heal (~65) *)
  let slowest = Stats.Histogram.quantile m.Leases.Metrics.read_latency 1.0 in
  Alcotest.(check bool) "blocked read waited for the heal" true (slowest > 40.)

let test_fast_client_clock_safe () =
  (* a fast *client* clock makes the client expire leases early: pure
     overhead, never staleness *)
  let trace =
    Workload.Trace.of_ops
      [
        read_op ~at:1. ~client:0 ~f:(file 0);
        read_op ~at:5. ~client:0 ~f:(file 0);
        read_op ~at:8. ~client:0 ~f:(file 0);
      ]
  in
  let setup =
    {
      (Experiments.Runner.lease_setup ~n_clients:1 ~term:(Analytic.Model.Finite 10.) ()) with
      Leases.Sim.faults = [ Leases.Sim.Client_drift { client = 0; at = sec 0.; drift = 1.5 } ];
    }
  in
  let m = Experiments.Runner.run_lease setup trace in
  Alcotest.(check int) "no violations" 0 m.Leases.Metrics.oracle_violations

let test_slow_client_clock_unsafe_direction () =
  (* a slow client clock stretches the lease in the client's eyes: with
     enough skew (beyond epsilon) and a wait-only server, stale reads
     appear — the second unsafe polarity of Section 5 *)
  let config = { Leases.Config.default with Leases.Config.callback_on_write = false } in
  let trace =
    Workload.Trace.of_ops
      [
        read_op ~at:1. ~client:1 ~f:(file 0);
        write_op ~at:2. ~client:0 ~f:(file 0);
        read_op ~at:14. ~client:1 ~f:(file 0);
        (* server sees the lease end at ~11; a half-speed client clock only
           reaches its deadline at ~21 *)
      ]
  in
  let setup =
    {
      (Experiments.Runner.lease_setup ~n_clients:2 ~config ~term:(Analytic.Model.Finite 10.) ())
      with
      Leases.Sim.faults = [ Leases.Sim.Client_drift { client = 1; at = sec 0.; drift = -0.5 } ];
    }
  in
  let m = Experiments.Runner.run_lease setup trace in
  Alcotest.(check bool) "stale read detected" true (m.Leases.Metrics.oracle_violations >= 1)

let test_epsilon_masks_small_skew () =
  (* skew smaller than epsilon is harmless by construction *)
  let config = { Leases.Config.default with Leases.Config.callback_on_write = false } in
  let trace =
    Workload.Trace.of_ops
      [
        read_op ~at:1. ~client:1 ~f:(file 0);
        write_op ~at:2. ~client:0 ~f:(file 0);
        read_op ~at:10.95 ~client:1 ~f:(file 0);
        read_op ~at:14. ~client:1 ~f:(file 0);
      ]
  in
  let setup =
    {
      (Experiments.Runner.lease_setup ~n_clients:2 ~config ~term:(Analytic.Model.Finite 10.) ())
      with
      Leases.Sim.faults =
        [ Leases.Sim.Server_step { shard = 0; at = sec 5.; step = Time.Span.of_ms 50. } ];
      (* 50 ms of skew, epsilon is 100 ms *)
    }
  in
  let m = Experiments.Runner.run_lease setup trace in
  Alcotest.(check int) "within-epsilon skew harmless" 0 m.Leases.Metrics.oracle_violations

let test_server_crash_loses_leases_but_not_writes () =
  (* writes committed before the crash survive (write-through): the
     recovered server serves the newest version *)
  let trace =
    Workload.Trace.of_ops
      [
        write_op ~at:1. ~client:0 ~f:(file 0);
        read_op ~at:10. ~client:0 ~f:(file 0);
      ]
  in
  let setup =
    {
      (Experiments.Runner.lease_setup ~n_clients:1 ~term:(Analytic.Model.Finite 10.) ()) with
      Leases.Sim.faults = [ Leases.Sim.Crash_server { at = sec 3.; duration = span 2. } ];
    }
  in
  let outcome = Leases.Sim.run setup ~trace in
  Alcotest.(check int) "committed write survives the crash" 1
    (Vstore.Version.to_int (Vstore.Store.current outcome.Leases.Sim.store (file 0)));
  Alcotest.(check int) "read sees it, consistently" 0
    outcome.Leases.Sim.metrics.Leases.Metrics.oracle_violations

let test_ops_during_client_crash_are_dropped () =
  let trace =
    Workload.Trace.of_ops
      [
        read_op ~at:1. ~client:0 ~f:(file 0);
        read_op ~at:5. ~client:0 ~f:(file 0); (* client is down: dropped *)
        read_op ~at:20. ~client:0 ~f:(file 0);
      ]
  in
  let setup =
    {
      (Experiments.Runner.lease_setup ~n_clients:1 ~term:(Analytic.Model.Finite 10.) ()) with
      Leases.Sim.faults = [ Leases.Sim.Crash_client { client = 0; at = sec 3.; duration = span 10. } ];
    }
  in
  let m = Experiments.Runner.run_lease setup trace in
  Alcotest.(check int) "middle op dropped" 1 m.Leases.Metrics.dropped_ops;
  Alcotest.(check int) "the others completed" 2 m.Leases.Metrics.reads_completed

(* Regression for the drift-stale timer bug: the server arms its
   write-expiry timer at the lease's server-local expiry; if its clock then
   slows (or steps backward) mid-wait, a timer frozen at the arming-time
   rate fires while the severed holder's lease is still running on the
   server's own clock.  A drift-faithful timer must ride the rate change
   out and commit only at true server-clock expiry. *)

let run_checked setup trace =
  let buf = Trace.Sink.buffer () in
  let setup = { setup with Leases.Sim.tracer = Trace.Sink.buffer_sink buf } in
  let outcome = Leases.Sim.run setup ~trace in
  let report = Trace.Checker.check ~server:0 (Trace.Sink.buffer_contents buf) in
  (outcome, report)

let expiry_wait_setup faults =
  {
    (Experiments.Runner.lease_setup ~n_clients:2 ~term:(Analytic.Model.Finite 10.) ()) with
    Leases.Sim.faults;
    drain = span 300.;
  }

let expiry_wait_trace =
  (* client 1 takes a lease, is cut off, then client 0's write must park on
     the expiry timer for the rest of the term *)
  Workload.Trace.of_ops
    [ read_op ~at:1. ~client:1 ~f:(file 0); write_op ~at:2. ~client:0 ~f:(file 0) ]

let check_commit_at_server_expiry ~min_wait (outcome, report) =
  let m = outcome.Leases.Sim.metrics in
  Alcotest.(check int) "committed" 1 m.Leases.Metrics.commits;
  let wait = Stats.Histogram.quantile m.Leases.Metrics.write_wait 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "waited %.2f s, to true server-clock expiry (>= %.0f)" wait min_wait)
    true (wait >= min_wait);
  Alcotest.(check int) "oracle clean" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "trace checker clean" true (Trace.Checker.ok report)

let test_slow_server_drift_mid_wait () =
  (* lease runs to ~11 on the server clock; slowing to half speed at
     engine 3 pushes that to engine ~19, so the write waits ~17 s.  The
     buggy once-at-arming timer fired at engine 11 (server clock ~7),
     committing 4 s of server-clock lease early. *)
  let setup =
    expiry_wait_setup
      [
        Leases.Sim.Partition_clients { clients = [ 1 ]; at = sec 1.5; duration = span 30. };
        Leases.Sim.Server_drift { shard = 0; at = sec 3.; drift = -0.5 };
      ]
  in
  check_commit_at_server_expiry ~min_wait:15. (run_checked setup expiry_wait_trace)

let test_backward_server_step_mid_wait () =
  (* stepping the server clock back 5 s at engine 3 moves local expiry ~11
     out to engine ~16: the wait stretches to ~14 s instead of firing at
     the stale engine instant. *)
  let setup =
    expiry_wait_setup
      [
        Leases.Sim.Partition_clients { clients = [ 1 ]; at = sec 1.5; duration = span 30. };
        Leases.Sim.Server_step { shard = 0; at = sec 3.; step = Time.Span.neg (span 5.) };
      ]
  in
  check_commit_at_server_expiry ~min_wait:13. (run_checked setup expiry_wait_trace)

(* --- bad fault input ------------------------------------------------------ *)

(* A fault naming a client the cluster does not have, a negative shard, a
   negative instant or a negative duration is refused with
   [Invalid_argument] naming the fault's spec, before the run's first
   event, by every run function — not mid-run, and not by silently
   faulting a host that does not exist. *)
let test_bad_faults_rejected_before_the_run () =
  let n = 3 in
  let trace =
    (Experiments.V_trace.poisson ~clients:n ~duration:(span 60.) ()).Experiments.V_trace.trace
  in
  let bad =
    [
      Leases.Sim.Client_drift { client = 9; at = sec 10.; drift = 0.5 };
      Leases.Sim.Client_step { client = n; at = sec 10.; step = span 1. };
      Leases.Sim.Crash_client { client = 9; at = sec 10.; duration = span 5. };
      Leases.Sim.Partition_clients { clients = [ 1; 9 ]; at = sec 10.; duration = span 5. };
      Leases.Sim.Crash_client { client = -1; at = sec 10.; duration = span 5. };
      Leases.Sim.Crash_shard { shard = -2; at = sec 10.; duration = span 5. };
      Leases.Sim.Server_drift { shard = -1; at = sec 10.; drift = 0.5 };
      Leases.Sim.Crash_client { client = 0; at = sec 10.; duration = span (-5.) };
      Leases.Sim.Crash_server { at = sec (-1.); duration = span 5. };
    ]
  in
  let modes : (string * (Trace.Sink.t -> Leases.Sim.fault list -> unit)) list =
    let deploy tracer faults =
      { Shard.Deploy.default_setup with Shard.Deploy.n_clients = n; n_shards = 4; faults; tracer }
    in
    [
      ( "Sim.run",
        fun tracer faults ->
          ignore
            (Leases.Sim.run
               { Leases.Sim.default_setup with Leases.Sim.n_clients = n; faults; tracer }
               ~trace) );
      ("Deploy.run", fun tracer faults -> ignore (Shard.Deploy.run (deploy tracer faults) ~trace));
      ( "Deploy.run_split",
        fun tracer faults ->
          ignore (Shard.Deploy.run_split ~domains:2 (deploy tracer faults) ~trace) );
      ( "Callback.run",
        fun tracer faults ->
          ignore
            (Baselines.Callback.run
               { Baselines.Callback.default_setup with n_clients = n; faults; tracer }
               ~trace) );
      ( "Ttl_hints.run",
        fun tracer faults ->
          ignore
            (Baselines.Ttl_hints.run
               { Baselines.Ttl_hints.default_setup with n_clients = n; faults; tracer }
               ~trace) );
      ( "Wsim.run",
        fun _ faults ->
          ignore (Wlease.Wsim.run { Wlease.Wsim.default_setup with n_clients = n; faults } ~trace)
      );
    ]
  in
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun (mode, run) ->
      List.iter
        (fun fault ->
          let spec = Leases.Sim.fault_to_spec fault in
          let buf = Trace.Sink.buffer () in
          (match run (Trace.Sink.buffer_sink buf) [ fault ] with
          | () -> Alcotest.failf "%s accepted %s" mode spec
          | exception Invalid_argument msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s names %s in %S" mode spec msg)
              true (contains msg spec));
          Alcotest.(check int)
            (Printf.sprintf "%s ran no event for %s" mode spec)
            0
            (List.length (Trace.Sink.buffer_contents buf)))
        bad;
      (* and a good fault still runs *)
      run Trace.Sink.null [ Leases.Sim.Crash_client { client = n - 1; at = sec 10.; duration = span 5. } ])
    modes

let () =
  Alcotest.run "faults"
    [
      ("drills", [ Alcotest.test_case "all paper predictions hold" `Slow test_drills_all_ok ]);
      ( "crash",
        [
          Alcotest.test_case "write wait bounded by term" `Quick test_write_wait_bounded_by_term;
          Alcotest.test_case "writes survive server crash" `Quick
            test_server_crash_loses_leases_but_not_writes;
          Alcotest.test_case "ops during crash dropped" `Quick
            test_ops_during_client_crash_are_dropped;
        ] );
      ( "partition",
        [ Alcotest.test_case "leases never stale" `Quick test_partition_never_stale_leases ] );
      ( "clocks",
        [
          Alcotest.test_case "fast client clock safe" `Quick test_fast_client_clock_safe;
          Alcotest.test_case "slow client clock unsafe" `Quick
            test_slow_client_clock_unsafe_direction;
          Alcotest.test_case "epsilon masks small skew" `Quick test_epsilon_masks_small_skew;
          Alcotest.test_case "slow server drift mid-wait" `Quick test_slow_server_drift_mid_wait;
          Alcotest.test_case "backward server step mid-wait" `Quick
            test_backward_server_step_mid_wait;
        ] );
      ( "input",
        [
          Alcotest.test_case "bad faults rejected before the run" `Quick
            test_bad_faults_rejected_before_the_run;
        ] );
    ]
