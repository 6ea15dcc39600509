(* Profiling-layer tests: exact slice accounting under deterministic fake
   clocks (nesting can never double-count), byte-identical reports across
   identical seeded runs, coverage and probe attribution on a real run,
   the disabled-probe overhead guard and engine-health sampling. *)

let span_sec = Simtime.Time.Span.of_sec

(* Deterministic hooks: the timer advances 1 s per reading, the words
   counters 3 minor / 1 major words per reading.  Integer-valued floats,
   so every accounting identity below is exact, not approximate. *)
let fake_timer () =
  let t = ref 0. in
  fun () ->
    t := !t +. 1.;
    !t

let fake_words () =
  let m = ref 0. and j = ref 0. in
  fun () ->
    m := !m +. 3.;
    j := !j +. 1.;
    (!m, !j)

let fake_recorder ?(interval_s = 10.) () =
  Profile.Recorder.create ~interval_s ~timer:(fake_timer ()) ~words:(fake_words ()) ()

let wall_of rows center =
  let row =
    List.find (fun (r : Profile.Recorder.row) -> r.r_center = center) rows
  in
  row.Profile.Recorder.r_wall_s

let end_event ?(sim_now = 1.) r =
  Profile.Recorder.event_end r ~sim_now ~queue_depth:1 ~pushed:1 ~cancelled:0

(* Every transition is one 1-second slice; nested enters of the same
   center must accumulate linearly, never multiply. *)
let test_nested_no_double_count () =
  let r = fake_recorder ~interval_s:1000. () in
  Profile.Recorder.start r;
  Profile.Recorder.event_begin r;
  Profile.Recorder.mark r Profile.Center.Net_delivery;
  Profile.Recorder.enter r Profile.Center.Trace_emit;
  Profile.Recorder.enter r Profile.Center.Trace_emit;
  Profile.Recorder.exit r;
  Profile.Recorder.exit r;
  end_event r;
  Profile.Recorder.stop r;
  let total = Profile.Recorder.wall_total_s r in
  Alcotest.(check (float 1e-9))
    "slices partition the interval" (Profile.Recorder.measured_wall_s r) total;
  (* start + 8 charging transitions: begin, mark, 2x enter, 2x exit, end, stop *)
  Alcotest.(check (float 1e-9)) "eight 1 s slices" 8. total;
  let rows = Profile.Recorder.rows r in
  Alcotest.(check (float 1e-9)) "trace/emit: 3 slices, not 5" 3.
    (wall_of rows Profile.Center.Trace_emit);
  Alcotest.(check (float 1e-9)) "net/delivery: mark + post-exit + pre-end" 2.
    (wall_of rows Profile.Center.Net_delivery);
  Alcotest.(check (float 1e-9)) "dispatch: inter-event + final" 2.
    (wall_of rows Profile.Center.Engine_dispatch);
  Alcotest.(check (float 1e-9)) "other: callback prefix before the mark" 1.
    (wall_of rows Profile.Center.Other);
  Alcotest.(check (float 1e-9)) "minor words: 3 per slice" 24.
    (Profile.Recorder.minor_words_total r);
  Alcotest.(check (float 1e-9)) "major words: 1 per slice" 8.
    (Profile.Recorder.major_words_total r)

(* Random probe programs: any interleaving of mark/enter/exit inside any
   number of events keeps the partition identity exact, and the slice
   count is exactly the number of charging transitions (exits at depth 0
   are guarded no-ops). *)
let center_of_int i = List.nth Profile.Center.all (abs i mod Profile.Center.count)

let slice_invariant_prop events =
  let r = fake_recorder ~interval_s:1e9 () in
  let charges = ref 0 in
  List.iter
    (fun ops ->
      Profile.Recorder.event_begin r;
      incr charges;
      (* event_begin pushes the event's own frame, so exits charge until
         they have popped it too; only then do they become no-ops *)
      let depth = ref 1 in
      List.iter
        (fun op ->
          match op mod 3 with
          | 0 ->
            Profile.Recorder.mark r (center_of_int (op / 3));
            incr charges
          | 1 ->
            Profile.Recorder.enter r (center_of_int (op / 3));
            incr depth;
            incr charges
          | _ ->
            Profile.Recorder.exit r;
            if !depth > 0 then begin
              decr depth;
              incr charges
            end)
        ops;
      end_event r;
      incr charges)
    events;
  Profile.Recorder.stop r;
  if events <> [] then incr charges;
  let total = Profile.Recorder.wall_total_s r in
  let measured = Profile.Recorder.measured_wall_s r in
  let rows = Profile.Recorder.rows r in
  Float.abs (total -. measured) < 1e-9
  && Float.abs (total -. float_of_int !charges) < 1e-9
  && List.for_all (fun (row : Profile.Recorder.row) -> row.r_wall_s >= 0.) rows
  && Float.abs (Profile.Recorder.minor_words_total r -. (3. *. float_of_int !charges)) < 1e-9
  && Profile.Recorder.events_total r = List.length events

let test_slice_invariant =
  QCheck.Test.make ~count:300 ~name:"random probe programs keep slices a partition"
    QCheck.(list_of_size Gen.(int_range 0 12) (list_of_size Gen.(int_range 0 20) int))
    slice_invariant_prop

(* The null recorder must ignore everything. *)
let test_null_recorder () =
  let r = Profile.Recorder.null in
  Alcotest.(check bool) "disabled" false (Profile.Recorder.enabled r);
  Profile.Recorder.start r;
  Profile.Recorder.event_begin r;
  Profile.Recorder.mark r Profile.Center.Server_grant;
  end_event r;
  Profile.Recorder.stop r;
  Alcotest.(check int) "no events recorded" 0 (Profile.Recorder.events_total r);
  Alcotest.(check (float 0.)) "no wall recorded" 0. (Profile.Recorder.wall_total_s r)

let test_bad_interval () =
  Alcotest.check_raises "non-positive interval rejected"
    (Invalid_argument "Profile.Recorder.create: interval must be positive and finite") (fun () ->
      ignore (Profile.Recorder.create ~interval_s:0. ~timer:(fake_timer ()) ()))

(* --- seeded runs ---------------------------------------------------- *)

let run_profiled ?(n_clients = 10) ?(duration = 60.) ?(seed = 5L) recorder =
  let trace =
    (Experiments.V_trace.poisson ~seed ~clients:n_clients ~duration:(span_sec duration) ())
      .Experiments.V_trace.trace
  in
  let setup = Experiments.Runner.lease_setup ~n_clients ~term:(Analytic.Model.Finite 10.) () in
  let setup = { setup with Leases.Sim.seed; profiler = recorder } in
  ignore (Leases.Sim.run setup ~trace)

(* Two identical seeded runs through injected deterministic hooks must
   render byte-identical leases-profile/1 documents. *)
let test_report_determinism () =
  let render () =
    let r = fake_recorder () in
    run_profiled r;
    Profile.Report.to_json_string (Profile.Report.of_recorder r)
  in
  let a = render () in
  let b = render () in
  Alcotest.(check string) "byte-identical reports" a b;
  Alcotest.(check bool) "non-trivial document" true (String.length a > 200)

let test_report_round_trip () =
  let r = fake_recorder () in
  run_profiled r;
  let report = Profile.Report.of_recorder r in
  let text = Profile.Report.to_json_string report in
  (match Profile.Report.of_json_string text with
  | Error why -> Alcotest.failf "re-parse failed: %s" why
  | Ok reparsed ->
    Alcotest.(check string) "round-trips byte-exactly" text
      (Profile.Report.to_json_string reparsed));
  (* Samples once carried the heap's occupied slots and live ratio; a
     report written then still parses. *)
  let old =
    {|{"schema":"leases-profile/1","interval_s":10,"events_total":7,"measured_wall_s":0.5,
      "wall_s_total":0.5,"minor_words_total":0,"major_words_total":0,"centers":[],
      "engine":{"samples":[{"t":10,"queue_depth":4,"occupied_slots":4,"live_ratio":1,
      "cancel_ratio":0.5,"events":7,"events_per_sim_s":0.7}]}}|}
  in
  match Profile.Report.of_json_string old with
  | Error why -> Alcotest.failf "a report with the retired sample fields fails: %s" why
  | Ok { samples = [ s ]; _ } ->
    Alcotest.(check int) "queue depth" 4 s.queue_depth;
    Alcotest.(check (float 0.)) "cancel ratio" 0.5 s.cancel_ratio
  | Ok _ -> Alcotest.fail "one sample expected"

(* A real profiled run: the expected probe points fire, cost-center totals
   cover the measured wall time (>= 90% is the acceptance bar; the slice
   machine gives ~100% by construction), and engine-health samples land on
   the cadence. *)
let test_real_run_coverage () =
  let r = Profile.Recorder.create ~timer:Unix.gettimeofday () in
  run_profiled ~n_clients:20 ~duration:60. r;
  let measured = Profile.Recorder.measured_wall_s r in
  Alcotest.(check bool) "measured some wall time" true (measured > 0.);
  Alcotest.(check bool) "centers cover >= 90% of measured wall" true
    (Profile.Recorder.wall_total_s r >= 0.9 *. measured);
  let rows = Profile.Recorder.rows r in
  let hits c =
    (List.find (fun (row : Profile.Recorder.row) -> row.r_center = c) rows)
      .Profile.Recorder.r_hits
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) (Profile.Center.name c ^ " probe fired") true (hits c > 0))
    [
      Profile.Center.Net_delivery;
      Profile.Center.Server_grant;
      Profile.Center.Client_op;
      Profile.Center.Client_handle;
    ];
  Alcotest.(check bool) "dispatched events" true (Profile.Recorder.events_total r > 1000);
  let samples = Profile.Recorder.samples r in
  (* 60 s workload + 120 s drain on a 10 s cadence *)
  Alcotest.(check bool) "health samples captured" true (List.length samples >= 5);
  List.iter
    (fun (s : Profile.Recorder.sample) ->
      Alcotest.(check bool) "cancel ratio non-negative" true (s.s_cancel_ratio >= 0.))
    samples;
  let times = List.map (fun (s : Profile.Recorder.sample) -> s.Profile.Recorder.s_t) samples in
  let rec mono = function a :: (b :: _ as rest) -> a < b && mono rest | _ -> true in
  Alcotest.(check bool) "sample times strictly increase" true (mono times)

(* Flamegraph exports must at least be valid JSON with the expected
   skeleton. *)
let test_flamegraph_exports () =
  let r = fake_recorder () in
  run_profiled r;
  let report = Profile.Report.of_recorder r in
  let speedscope = Profile.Report.to_speedscope report in
  let chrome = Profile.Report.to_chrome report in
  (match Trace.Json.parse speedscope with
  | Error why -> Alcotest.failf "speedscope output is not JSON: %s" why
  | Ok doc ->
    Alcotest.(check bool) "speedscope schema key" true
      (Trace.Json.member "$schema" doc <> None));
  match Trace.Json.parse chrome with
  | Error why -> Alcotest.failf "chrome output is not JSON: %s" why
  | Ok doc ->
    Alcotest.(check bool) "chrome traceEvents key" true
      (Trace.Json.member "traceEvents" doc <> None)

let contains_sub haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_hotspot_table () =
  let r = fake_recorder () in
  run_profiled r;
  let table = Profile.Report.hotspot_table (Profile.Report.of_recorder r) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in table") true (contains_sub table needle))
    [ "center"; "server/grant"; "engine:" ]

(* --- overhead guard -------------------------------------------------- *)

(* With profiling disabled the instrumented dispatch site must stay within
   noise of the bare event-queue micro: the guard is one load and one
   branch, so a big multiple here means someone put work outside the
   guard.  The bound is deliberately loose (dispatch also pays schedule +
   callback) to stay robust on loaded CI machines. *)
let test_disabled_overhead () =
  let timer = Unix.gettimeofday in
  let ops = 200_000 in
  let push_pop = Experiments.Corebench.event_queue_push_pop ~timer ~ops in
  let dispatch = Experiments.Corebench.engine_dispatch ~timer ~ops in
  let disabled = dispatch.Experiments.Corebench.dispatch_disabled in
  Alcotest.(check bool)
    (Printf.sprintf "disabled dispatch (%.2f Mops/s) within 10x of push_pop (%.2f Mops/s)"
       (disabled.Experiments.Corebench.ops_per_sec /. 1e6)
       (push_pop.Experiments.Corebench.ops_per_sec /. 1e6))
    true
    (disabled.Experiments.Corebench.ops_per_sec
    >= push_pop.Experiments.Corebench.ops_per_sec /. 10.);
  let enabled = dispatch.Experiments.Corebench.dispatch_enabled in
  Alcotest.(check bool) "enabled dispatch not catastrophically slower" true
    (enabled.Experiments.Corebench.ops_per_sec
    >= disabled.Experiments.Corebench.ops_per_sec /. 100.)

(* --- queue lifetime counters ----------------------------------------- *)

let test_queue_counters () =
  let q = Simtime.Event_queue.create () in
  let handles =
    List.init 5 (fun i -> Simtime.Event_queue.push q ~at:(Simtime.Time.of_us i) i)
  in
  Simtime.Event_queue.cancel (List.nth handles 1);
  Simtime.Event_queue.cancel (List.nth handles 3);
  (* cancelling twice must not double-count *)
  Simtime.Event_queue.cancel (List.nth handles 3);
  let rec drain () =
    match Simtime.Event_queue.pop q with Some _ -> drain () | None -> ()
  in
  drain ();
  Alcotest.(check int) "total pushed" 5 (Simtime.Event_queue.total_pushed q);
  Alcotest.(check int) "total cancelled" 2 (Simtime.Event_queue.total_cancelled q)

let () =
  Alcotest.run "profile"
    [
      ( "recorder",
        [
          Alcotest.test_case "nested spans never double-count" `Quick
            test_nested_no_double_count;
          QCheck_alcotest.to_alcotest test_slice_invariant;
          Alcotest.test_case "null recorder is inert" `Quick test_null_recorder;
          Alcotest.test_case "bad interval rejected" `Quick test_bad_interval;
        ] );
      ( "report",
        [
          Alcotest.test_case "byte-identical across seeded runs" `Quick
            test_report_determinism;
          Alcotest.test_case "JSON round trip" `Quick test_report_round_trip;
          Alcotest.test_case "real-run coverage and probes" `Quick test_real_run_coverage;
          Alcotest.test_case "flamegraph exports" `Quick test_flamegraph_exports;
          Alcotest.test_case "hotspot table" `Quick test_hotspot_table;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled probe near-free" `Slow test_disabled_overhead;
          Alcotest.test_case "queue lifetime counters" `Quick test_queue_counters;
        ] );
    ]
