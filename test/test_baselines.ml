(* Tests for the Section-6 baseline protocols: each must be exactly as
   consistent — and exactly as broken — as the paper says it is. *)

open Simtime

let span = Time.Span.of_sec
let sec = Time.of_sec
let file = Vstore.File_id.of_int

let v_trace ?(seed = 3L) ?(clients = 2) duration =
  (Experiments.V_trace.shared_heavy ~seed ~clients ~duration:(span duration) ())
    .Experiments.V_trace.trace

let read_op ~at ~client ~f =
  { Workload.Op.at = sec at; client; kind = Workload.Op.Read; file = f; temporary = false }

let write_op ~at ~client ~f =
  { Workload.Op.at = sec at; client; kind = Workload.Op.Write; file = f; temporary = false }

(* Every protocol here runs from the lease harness's setup. *)
let setup n_clients = { Leases.Sim.default_setup with Leases.Sim.n_clients }
let with_policy term_policy (s : Leases.Sim.setup) =
  { s with config = { s.config with term_policy } }

(* --- polling ----------------------------------------------------------- *)

(* Check-on-use (Sprite, RFS, the Andrew prototype) is exactly a lease of
   term zero, so it runs as one. *)
let zero_term_lease ~clients trace =
  Experiments.Runner.run_lease
    (Experiments.Runner.lease_setup ~n_clients:clients ~term:(Analytic.Model.Finite 0.) ())
    trace

let test_polling_consistent_and_expensive () =
  let m = zero_term_lease ~clients:2 (v_trace 1_000.) in
  Alcotest.(check int) "always consistent" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check (float 0.001)) "never hits" 0. m.Leases.Metrics.hit_ratio;
  Alcotest.(check int) "two messages per read" (2 * m.Leases.Metrics.reads_completed)
    m.Leases.Metrics.msgs_extension

let test_polling_equals_zero_term_lease () =
  let duration = span 500. in
  let r = Experiments.Baselines_cmp.run ~duration ~clients:2 () in
  let polling =
    List.find
      (fun (row : Experiments.Baselines_cmp.row) ->
        row.Experiments.Baselines_cmp.name = "polling (check-on-use)")
      r.Experiments.Baselines_cmp.rows
  in
  let trace =
    (Experiments.V_trace.shared_heavy ~seed:23L ~clients:2 ~duration ()).Experiments.V_trace.trace
  in
  Alcotest.(check string) "the Section 6 polling row is the zero-term lease"
    (Leases.Metrics.to_json (zero_term_lease ~clients:2 trace))
    (Leases.Metrics.to_json polling.Experiments.Baselines_cmp.metrics)

(* --- callbacks ---------------------------------------------------------- *)

let test_callbacks_consistent_when_healthy () =
  let trace = v_trace ~seed:7L 1_000. in
  let m = (Baselines.Callback.run (setup 2) ~trace).Leases.Sim.metrics in
  Alcotest.(check int) "no stale reads without faults" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "cache actually used" true (m.Leases.Metrics.hit_ratio > 0.5);
  Alcotest.(check int) "all writes commit" m.Leases.Metrics.writes_completed
    m.Leases.Metrics.commits

let test_callbacks_break_round () =
  (* scripted: client 1 caches f, client 0 writes it -> break + ack *)
  let f = file 0 in
  let trace =
    Workload.Trace.of_ops
      [ read_op ~at:1. ~client:1 ~f; write_op ~at:2. ~client:0 ~f; read_op ~at:3. ~client:1 ~f ]
  in
  let outcome = Baselines.Callback.run (setup 2) ~trace in
  let m = outcome.Leases.Sim.metrics in
  Alcotest.(check int) "consistent" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "a break was sent" true (m.Leases.Metrics.callbacks_sent >= 1);
  Alcotest.(check int) "break answered" 1 m.Leases.Metrics.approvals_answered

let test_callbacks_stale_under_partition () =
  (* the paper's criticism: the server proceeds after a transport timeout,
     leaving the partitioned client on stale data until its next poll *)
  let f = file 0 in
  let trace =
    Workload.Trace.of_ops
      [
        read_op ~at:1. ~client:1 ~f;
        write_op ~at:5. ~client:0 ~f;
        read_op ~at:15. ~client:1 ~f;
        read_op ~at:30. ~client:1 ~f;
        read_op ~at:200. ~client:1 ~f;
      ]
  in
  let setup =
    {
      (setup 2) with
      Leases.Sim.faults =
        [ Leases.Sim.Partition_clients
            { clients = [ 1 ]; at = sec 2.; duration = span 60. } ];
    }
  in
  let m = (Baselines.Callback.run ~poll_period:(span 100.) setup ~trace).Leases.Sim.metrics in
  Alcotest.(check int) "the two partitioned reads are stale" 2
    m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "write proceeded quickly (gave up on the holder)" true
    (Stats.Histogram.mean m.Leases.Metrics.write_wait < 5.);
  (* the read after the poll is fresh again: only 2 of 4 reads stale *)
  Alcotest.(check int) "reads all completed" 4 m.Leases.Metrics.reads_completed

let test_callbacks_lost_on_server_crash () =
  (* server crash wipes the callback registry; a client that cached before
     the crash reads stale after a post-crash write, until its next poll *)
  let f = file 0 in
  let trace =
    Workload.Trace.of_ops
      [
        read_op ~at:1. ~client:1 ~f;
        write_op ~at:10. ~client:0 ~f;
        read_op ~at:12. ~client:1 ~f;
      ]
  in
  let setup =
    {
      (setup 2) with
      Leases.Sim.faults = [ Leases.Sim.Crash_server { at = sec 3.; duration = span 2. } ];
    }
  in
  let m = (Baselines.Callback.run setup ~trace).Leases.Sim.metrics in
  Alcotest.(check int) "stale read after registry loss" 1 m.Leases.Metrics.oracle_violations

(* --- TTL hints ----------------------------------------------------------- *)

let test_ttl_stale_within_ttl () =
  let f = file 0 in
  let trace =
    Workload.Trace.of_ops
      [
        read_op ~at:1. ~client:1 ~f;
        write_op ~at:2. ~client:0 ~f;
        read_op ~at:5. ~client:1 ~f; (* within TTL: stale *)
        read_op ~at:20. ~client:1 ~f; (* TTL expired: fresh *)
      ]
  in
  let m = (Baselines.Ttl_hints.run (setup 2) ~trace).Leases.Sim.metrics in
  Alcotest.(check int) "exactly the in-TTL read is stale" 1 m.Leases.Metrics.oracle_violations;
  (* staleness bounded by the TTL *)
  Alcotest.(check bool) "staleness < ttl" true
    (Stats.Histogram.quantile m.Leases.Metrics.staleness 1.0 <= 10.)

let test_ttl_writes_never_wait () =
  let trace = v_trace ~seed:11L 1_000. in
  let m = (Baselines.Ttl_hints.run (setup 2) ~trace).Leases.Sim.metrics in
  Alcotest.(check (float 1e-6)) "no added write delay" 0. m.Leases.Metrics.mean_write_delay_added;
  Alcotest.(check int) "no approval traffic" 0 m.Leases.Metrics.msgs_approval;
  Alcotest.(check bool) "but reads go stale" true (m.Leases.Metrics.oracle_violations > 0)

let test_ttl_zero_equivalence () =
  (* as the TTL shrinks the staleness disappears and the load approaches
     check-on-use *)
  let trace = v_trace ~seed:13L 500. in
  let run ttl =
    (Baselines.Ttl_hints.run (with_policy (Leases.Term_policy.Fixed (span ttl)) (setup 2)) ~trace)
      .Leases.Sim.metrics
  in
  let short = run 0.001 in
  let long = run 30. in
  Alcotest.(check int) "microscopic ttl: no staleness" 0 short.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "long ttl: cheaper but stale" true
    (long.Leases.Metrics.consistency_msgs < short.Leases.Metrics.consistency_msgs
    && long.Leases.Metrics.oracle_violations > 0)

(* --- trace pins ------------------------------------------------------------ *)

(* Pin each Section-6 protocol's exact encoded event stream on one lossy
   run with a partition, a client crash, a server crash and a client drift
   (which the baselines, keeping no clocks, ignore), so a refactor that
   moves an emission, a timer or an engine sequence number shows up even
   where every metric and figure stays the same.  Each pin is the event
   count, the MD5 of the "\n"-joined encoded lines and the MD5 of
   [Metrics.to_json]: the trace carries none of the server's message,
   commit, poll or break counts. *)

let capture () =
  let lines = ref [] in
  let sink =
    { Trace.Sink.enabled = true; push = (fun e -> lines := Trace.Codec.encode e :: !lines);
      flush = ignore }
  in
  (sink, fun () -> List.rev !lines)

let faults_of_specs specs =
  List.map
    (fun spec ->
      match Leases.Sim.fault_of_spec spec with Ok f -> f | Error why -> failwith why)
    specs

let pin_faults () =
  faults_of_specs
    [
      "partition=0,240,120"; "crash-client=2,100,30"; "crash-server=300,10";
      "client-drift=1,50,0.5";
    ]

let check_pin name ~events ~md5 ~metrics_md5 lines (m : Leases.Metrics.t) =
  let digest s = Digest.to_hex (Digest.string s) in
  Alcotest.(check int) (name ^ ": event count") events (List.length lines);
  Alcotest.(check string) (name ^ ": stream digest") md5 (digest (String.concat "\n" lines));
  Alcotest.(check string) (name ^ ": metrics digest") metrics_md5
    (digest (Leases.Metrics.to_json m))

let pin_trace () = v_trace ~seed:23L ~clients:5 600.

let test_pin_callback () =
  let tracer, lines = capture () in
  let o =
    Baselines.Callback.run ~poll_period:(span 120.)
      { (setup 5) with Leases.Sim.loss = 0.05; faults = pin_faults (); tracer }
      ~trace:(pin_trace ())
  in
  check_pin "callback" ~events:11_112 ~md5:"581bb5ff10d5a444f66c463b79888e9a"
    ~metrics_md5:"97a0fd6980abc03fc7138cbb3a0e5010" (lines ()) o.Leases.Sim.metrics

let test_pin_ttl () =
  let tracer, lines = capture () in
  let o =
    Baselines.Ttl_hints.run
      { (setup 5) with Leases.Sim.loss = 0.05; faults = pin_faults (); tracer }
      ~trace:(pin_trace ())
  in
  check_pin "ttl" ~events:24_932 ~md5:"514942d76e9331cad2bf6088c9141c42"
    ~metrics_md5:"de9876411fb840f8ba9a66056517d08d" (lines ()) o.Leases.Sim.metrics

let test_pin_zero_term_lease () =
  let tracer, lines = capture () in
  let m =
    Experiments.Runner.run_lease
      { (Experiments.Runner.lease_setup ~n_clients:5 ~term:(Analytic.Model.Finite 0.) ()) with
        Leases.Sim.loss = 0.05; faults = pin_faults (); tracer }
      (pin_trace ())
  in
  check_pin "zero-term lease" ~events:28_302 ~md5:"cd5139794efd0e2c48133090c6196547"
    ~metrics_md5:"08dcbacfa3f04d45fda8e272f0dd7216" (lines ()) m

(* --- negative controls ------------------------------------------------------ *)

(* The trace checker must fire on a real run that breaks consistency, or a
   clean verdict elsewhere proves nothing.  Each case replays one run's
   stream through the checker and compares the invariants it names with
   the oracle's count; equivalent to [simulate -w shared-heavy -n 4 -d 300
   -s 3 -t 10 -p P [--fault partition=0,100,60] --trace F] then
   [tracedump F --check-only]. *)

let control_trace () = v_trace ~seed:3L ~clients:4 300.
let control_partition () = faults_of_specs [ "partition=0,100,60" ]

let checked run =
  let buf = Trace.Sink.buffer () in
  let m = run (Trace.Sink.buffer_sink buf) in
  let report = Trace.Checker.check (Trace.Sink.buffer_contents buf) in
  let fired =
    List.sort_uniq String.compare
      (List.map (fun v -> v.Trace.Checker.invariant) report.Trace.Checker.violations)
  in
  (fired, List.length report.Trace.Checker.violations, m.Leases.Metrics.oracle_violations)

let callback_control faults tracer =
  (Baselines.Callback.run
     { (setup 4) with Leases.Sim.seed = 3L; faults; tracer }
     ~trace:(control_trace ()))
    .Leases.Sim.metrics

let check_control name ~fired ~violations ~oracle (got_fired, got_violations, got_oracle) =
  Alcotest.(check (list string)) (name ^ ": invariants fired") fired got_fired;
  Alcotest.(check int) (name ^ ": checker violations") violations got_violations;
  Alcotest.(check int) (name ^ ": oracle violations") oracle got_oracle

let test_control_callback_healthy () =
  check_control "healthy callbacks" ~fired:[] ~violations:0 ~oracle:0
    (checked (callback_control []))

let test_control_callback_partition () =
  check_control "partitioned callbacks" ~fired:[ "commit-vs-lease"; "stale-hit" ] ~violations:5
    ~oracle:4
    (checked (callback_control (control_partition ())))

let test_control_ttl () =
  check_control "TTL hints" ~fired:[ "stale-hit" ] ~violations:43 ~oracle:43
    (checked (fun tracer ->
         (Baselines.Ttl_hints.run
            { (setup 4) with Leases.Sim.seed = 3L; tracer }
            ~trace:(control_trace ()))
           .Leases.Sim.metrics))

let test_control_leases_partition () =
  check_control "partitioned leases" ~fired:[] ~violations:0 ~oracle:0
    (checked (fun tracer ->
         Experiments.Runner.run_lease
           { (Experiments.Runner.lease_setup ~n_clients:4 ~term:(Analytic.Model.Finite 10.) ()) with
             Leases.Sim.seed = 3L; faults = control_partition (); tracer }
           (control_trace ())))

(* A checker fed live from the run's tracer and one replaying a buffer
   tee'd from the same tracer must agree, violation for violation. *)
let test_control_live_equals_replay () =
  let live = Trace.Checker.create () in
  let buf = Trace.Sink.buffer () in
  ignore
    (callback_control (control_partition ())
       (Trace.Sink.tee [ Trace.Checker.sink live; Trace.Sink.buffer_sink buf ]));
  let replay = Trace.Checker.check (Trace.Sink.buffer_contents buf) in
  Alcotest.(check int) "the control's violations" 5 (List.length replay.Trace.Checker.violations);
  Alcotest.check
    (Alcotest.testable Trace.Checker.pp_report ( = ))
    "live report = replayed report" replay (Trace.Checker.report live)

(* --- the shared setup ------------------------------------------------------ *)

(* Both baselines run from [Leases.Sim.setup]: they record into its
   profiler, and refuse what they cannot run before any event. *)

let short_trace () =
  (Experiments.V_trace.poisson ~clients:2 ~duration:(span 30.) ()).Experiments.V_trace.trace

let test_setup_profiler () =
  let trace = short_trace () in
  List.iter
    (fun (name, run) ->
      let profiler =
        Profile.Recorder.create ~words:(fun () -> (0., 0.)) ~timer:(fun () -> 0.) ()
      in
      run { (setup 2) with Leases.Sim.profiler };
      Alcotest.(check bool) (name ^ " recorded its engine") true
        (Profile.Recorder.events_total profiler > 0))
    [
      ("Callback.run", fun s -> ignore (Baselines.Callback.run s ~trace));
      ("Ttl_hints.run", fun s -> ignore (Baselines.Ttl_hints.run s ~trace));
    ]

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* [run] raises [Invalid_argument] naming [what] and traces nothing. *)
let check_rejected name ~what run =
  let buf = Trace.Sink.buffer () in
  (match run (Trace.Sink.buffer_sink buf) with
  | () -> Alcotest.failf "%s was accepted" name
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S names %s" name msg what)
      true (contains msg what));
  Alcotest.(check int) (name ^ ": no event") 0 (List.length (Trace.Sink.buffer_contents buf))

(* At a zero period a poll would reschedule itself at the same instant
   forever, and a negative one fails mid-run. *)
let test_poll_period_positive () =
  let trace = short_trace () in
  List.iter
    (fun p ->
      check_rejected (Printf.sprintf "poll period %g s" p) ~what:"poll_period" (fun tracer ->
          ignore
            (Baselines.Callback.run ~poll_period:(span p)
               { (setup 2) with Leases.Sim.tracer }
               ~trace)))
    [ 0.; -5. ]

let test_ttl_term () =
  let trace = short_trace () in
  let run policy tracer =
    ignore
      (Baselines.Ttl_hints.run { (with_policy policy (setup 2)) with Leases.Sim.tracer } ~trace)
  in
  check_rejected "TTL of an infinite term" ~what:"infinite" (run Leases.Term_policy.Infinite);
  check_rejected "TTL of an adaptive term" ~what:"adaptive"
    (run (Leases.Term_policy.Adaptive Leases.Term_policy.default_adaptive));
  (* a zero TTL runs: it is check-on-use without promises *)
  run Leases.Term_policy.Zero Trace.Sink.null

(* --- the paper's two-axis comparison ------------------------------------ *)

let test_leases_dominate () =
  (* on the same workload, leases are the only protocol that is both
     within 2x of the cheapest message load and perfectly consistent *)
  let r = Experiments.Baselines_cmp.run ~duration:(span 800.) ~clients:4 () in
  let find name rows =
    List.find (fun (row : Experiments.Baselines_cmp.row) ->
        String.length row.Experiments.Baselines_cmp.name >= String.length name
        && String.sub row.Experiments.Baselines_cmp.name 0 (String.length name) = name)
      rows
  in
  let metric (row : Experiments.Baselines_cmp.row) = row.Experiments.Baselines_cmp.metrics in
  let leases = metric (find "leases" r.Experiments.Baselines_cmp.rows) in
  let polling = metric (find "polling" r.Experiments.Baselines_cmp.rows) in
  let ttl = metric (find "TTL" r.Experiments.Baselines_cmp.rows) in
  Alcotest.(check int) "leases consistent" 0 leases.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "leases much cheaper than polling" true
    (leases.Leases.Metrics.consistency_msgs * 2 < polling.Leases.Metrics.consistency_msgs);
  Alcotest.(check bool) "ttl inconsistent" true (ttl.Leases.Metrics.oracle_violations > 0);
  (* under partition, only the callback baseline goes stale *)
  let lease_part = metric (find "leases" r.Experiments.Baselines_cmp.partition_rows) in
  let cb_part = metric (find "callbacks" r.Experiments.Baselines_cmp.partition_rows) in
  Alcotest.(check int) "leases still consistent under partition" 0
    lease_part.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "callbacks stale under partition" true
    (cb_part.Leases.Metrics.oracle_violations > 0)

let () =
  Alcotest.run "baselines"
    [
      ( "polling",
        [
          Alcotest.test_case "consistent + expensive" `Quick test_polling_consistent_and_expensive;
          Alcotest.test_case "equals zero-term lease" `Quick test_polling_equals_zero_term_lease;
        ] );
      ( "callbacks",
        [
          Alcotest.test_case "consistent when healthy" `Quick test_callbacks_consistent_when_healthy;
          Alcotest.test_case "break round" `Quick test_callbacks_break_round;
          Alcotest.test_case "stale under partition" `Quick test_callbacks_stale_under_partition;
          Alcotest.test_case "registry lost on crash" `Quick test_callbacks_lost_on_server_crash;
        ] );
      ( "ttl",
        [
          Alcotest.test_case "stale within ttl" `Quick test_ttl_stale_within_ttl;
          Alcotest.test_case "writes never wait" `Quick test_ttl_writes_never_wait;
          Alcotest.test_case "ttl shrinks to check-on-use" `Quick test_ttl_zero_equivalence;
        ] );
      ( "pins",
        [
          Alcotest.test_case "callback trace" `Quick test_pin_callback;
          Alcotest.test_case "ttl trace" `Quick test_pin_ttl;
          Alcotest.test_case "zero-term lease trace" `Quick test_pin_zero_term_lease;
        ] );
      ( "negative controls",
        [
          Alcotest.test_case "healthy callbacks are clean" `Quick test_control_callback_healthy;
          Alcotest.test_case "partitioned callbacks are flagged" `Quick
            test_control_callback_partition;
          Alcotest.test_case "TTL hints are flagged" `Quick test_control_ttl;
          Alcotest.test_case "partitioned leases are clean" `Quick test_control_leases_partition;
          Alcotest.test_case "live checker = replay" `Quick test_control_live_equals_replay;
        ] );
      ( "setup",
        [
          Alcotest.test_case "profiler records the run" `Quick test_setup_profiler;
          Alcotest.test_case "poll period must be positive" `Quick test_poll_period_positive;
          Alcotest.test_case "TTL is a zero or fixed term" `Quick test_ttl_term;
        ] );
      ( "comparison",
        [ Alcotest.test_case "leases dominate" `Slow test_leases_dominate ] );
    ]
