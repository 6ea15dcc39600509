(* Integration tests: full simulation runs over generated workloads,
   checked against the analytic model and the consistency oracle. *)

open Simtime

let span = Time.Span.of_sec

let v_trace ?(seed = 3L) ?(clients = 1) duration =
  (Experiments.V_trace.poisson ~seed ~clients ~duration:(span duration) ()).Experiments.V_trace.trace

let run_term ?n_clients trace term =
  Experiments.Runner.run_lease (Experiments.Runner.lease_setup ?n_clients ~term ()) trace

let test_no_violations_any_term () =
  let trace = v_trace 2_000. in
  List.iter
    (fun term ->
      let m = run_term trace term in
      Alcotest.(check int)
        (Printf.sprintf "violations at term %s"
           (match term with Analytic.Model.Finite s -> string_of_float s | Analytic.Model.Infinite -> "inf"))
        0 m.Leases.Metrics.oracle_violations)
    [ Analytic.Model.Finite 0.; Analytic.Model.Finite 1.; Analytic.Model.Finite 10.;
      Analytic.Model.Infinite ]

let test_all_ops_complete () =
  let trace = v_trace 1_000. in
  let m = run_term trace (Analytic.Model.Finite 10.) in
  Alcotest.(check int) "no drops in a healthy run" 0 m.Leases.Metrics.dropped_ops;
  Alcotest.(check int) "reads checked = reads completed" m.Leases.Metrics.reads_completed
    m.Leases.Metrics.oracle_reads;
  Alcotest.(check int) "commits = writes" m.Leases.Metrics.writes_completed
    m.Leases.Metrics.commits

let test_determinism () =
  let trace = v_trace 500. in
  let a = run_term trace (Analytic.Model.Finite 10.) in
  let b = run_term trace (Analytic.Model.Finite 10.) in
  Alcotest.(check int) "msgs identical" a.Leases.Metrics.consistency_msgs
    b.Leases.Metrics.consistency_msgs;
  Alcotest.(check int) "hits identical" a.Leases.Metrics.cache_hits b.Leases.Metrics.cache_hits;
  Alcotest.(check (float 1e-12)) "delay identical" a.Leases.Metrics.mean_op_delay
    b.Leases.Metrics.mean_op_delay

let test_matches_analytic_model () =
  (* the Figure-1 validation: simulated consistency load within ~10 % of
     formula 1 across the term sweep on a Poisson trace *)
  let trace = v_trace ~seed:41L 10_000. in
  let params = Analytic.Params.v_lan in
  List.iter
    (fun term_s ->
      let m = run_term trace (Analytic.Model.Finite term_s) in
      let model = Analytic.Model.consistency_load params (Analytic.Model.Finite term_s) in
      let sim = m.Leases.Metrics.consistency_msg_rate in
      (* The simulator pays one extra revalidation round per write (the
         writer invalidates its own copy — write-through semantics the
         closed-form model ignores), worth at most 2W msg/s; allow that on
         top of a 12 % sampling tolerance. *)
      let allowance = (0.12 *. model) +. (2. *. params.Analytic.Params.write_rate) in
      if Float.abs (sim -. model) > allowance then
        Alcotest.failf "term %g: sim %.4f vs model %.4f (beyond %.4f allowance)" term_s sim model
          allowance)
    [ 0.; 2.; 5.; 10.; 30. ]

let test_zero_term_exact () =
  (* at a zero term the load is exactly two messages per read *)
  let trace = v_trace 1_000. in
  let m = run_term trace (Analytic.Model.Finite 0.) in
  Alcotest.(check int) "2 msgs per read" (2 * m.Leases.Metrics.reads_completed)
    m.Leases.Metrics.msgs_extension;
  Alcotest.(check (float 0.001)) "no cache hits" 0. m.Leases.Metrics.hit_ratio

let test_longer_term_fewer_messages () =
  let trace = v_trace 2_000. in
  let loads =
    List.map
      (fun t -> (run_term trace (Analytic.Model.Finite t)).Leases.Metrics.consistency_msgs)
      [ 0.; 2.; 10.; 30. ]
  in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      if b > a then Alcotest.fail "consistency messages increased with the term";
      monotone rest
    | [ _ ] | [] -> ()
  in
  monotone loads

let test_hit_ratio_grows_with_term () =
  let trace = v_trace 2_000. in
  let hit t = (run_term trace (Analytic.Model.Finite t)).Leases.Metrics.hit_ratio in
  Alcotest.(check bool) "10 s beats 2 s" true (hit 10. > hit 2.);
  Alcotest.(check bool) "2 s beats zero" true (hit 2. > hit 0.)

let test_bursty_sharper_knee () =
  (* the paper's observation: burstiness makes short terms look better *)
  let duration = span 5_000. in
  let poisson = (Experiments.V_trace.poisson ~seed:5L ~duration ()).Experiments.V_trace.trace in
  let bursty = (Experiments.V_trace.bursty ~seed:5L ~duration ()).Experiments.V_trace.trace in
  let rel trace =
    let zero = (run_term trace (Analytic.Model.Finite 0.)).Leases.Metrics.consistency_msg_rate in
    let at2 = (run_term trace (Analytic.Model.Finite 2.)).Leases.Metrics.consistency_msg_rate in
    at2 /. zero
  in
  Alcotest.(check bool) "bursty relative load at 2 s below Poisson's" true
    (rel bursty < rel poisson)

let test_multi_client_sharing () =
  (* several clients over shared files: approvals happen, consistency holds *)
  let trace =
    (Experiments.V_trace.shared_heavy ~seed:31L ~clients:4 ~duration:(span 2_000.) ())
      .Experiments.V_trace.trace
  in
  let m = run_term ~n_clients:4 trace (Analytic.Model.Finite 10.) in
  Alcotest.(check int) "no violations with sharing" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "approval traffic present" true (m.Leases.Metrics.msgs_approval > 0);
  Alcotest.(check bool) "callbacks sent" true (m.Leases.Metrics.callbacks_sent > 0);
  Alcotest.(check int) "all writes commit" m.Leases.Metrics.writes_completed
    m.Leases.Metrics.commits

let test_consistency_under_loss () =
  let trace = v_trace ~seed:9L 500. in
  let setup =
    { (Experiments.Runner.lease_setup ~term:(Analytic.Model.Finite 10.) ()) with
      Leases.Sim.loss = 0.3; seed = 123L }
  in
  let m = Experiments.Runner.run_lease setup trace in
  Alcotest.(check int) "loss costs time, not correctness" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "drops happened" true (m.Leases.Metrics.net_dropped_loss > 0);
  Alcotest.(check bool) "retransmissions happened" true (m.Leases.Metrics.retransmissions > 0);
  Alcotest.(check int) "ops all done despite loss" 0 m.Leases.Metrics.dropped_ops

let test_temporary_ops_bypass_server () =
  let m =
    run_term
      (v_trace ~seed:15L 1_000.)
      (Analytic.Model.Finite 10.)
  in
  Alcotest.(check bool) "temporary ops present in the V workload" true
    (m.Leases.Metrics.temp_ops > 0)

let test_adaptive_policy_runs () =
  let trace = v_trace ~seed:21L 2_000. in
  let config =
    { Leases.Config.default with
      Leases.Config.term_policy = Leases.Term_policy.Adaptive Leases.Term_policy.default_adaptive }
  in
  let setup = { Leases.Sim.default_setup with Leases.Sim.config } in
  let outcome = Leases.Sim.run setup ~trace in
  let m = outcome.Leases.Sim.metrics in
  Alcotest.(check int) "adaptive stays consistent" 0 m.Leases.Metrics.oracle_violations;
  (* adaptive terms grow on read-mostly files, beating the zero-term load *)
  let zero = run_term trace (Analytic.Model.Finite 0.) in
  Alcotest.(check bool) "adaptive beats zero term" true
    (m.Leases.Metrics.consistency_msgs < zero.Leases.Metrics.consistency_msgs)

let test_metrics_printing () =
  let m = run_term (v_trace 100.) (Analytic.Model.Finite 10.) in
  let full = Format.asprintf "%a" Leases.Metrics.pp m in
  let brief = Format.asprintf "%a" Leases.Metrics.pp_brief m in
  Alcotest.(check bool) "full summary mentions ops" true
    (String.length full > 100
    &&
    let rec contains i =
      i + 10 <= String.length full && (String.sub full i 10 = "ops issued" || contains (i + 1))
    in
    contains 0);
  Alcotest.(check bool) "brief is one line" true (not (String.contains brief '\n'))

(* --- grant-path pins ------------------------------------------------------ *)

(* One seeded, faulted run (V trace, 20 clients, 300 s, 5 % loss, a client
   crash and a server clock drift) per way the server can choose a term and
   the client can set an expiry: a fixed, zero, infinite, adaptive or
   compensated term, an anticipatory renewal timer, and installed-file
   coverage.  Each pins the event count, the MD5 of the encoded trace stream
   and the MD5 of [Metrics.to_json]; the trace-order golden in [test_trace]
   covers the default config only. *)
let grant_pin_run config =
  let { Experiments.V_trace.trace; _ } =
    Experiments.V_trace.poisson ~seed:5L ~clients:20 ~duration:(span 300.) ()
  in
  let events = ref 0 in
  let stream = Buffer.create (1 lsl 20) in
  let sink =
    {
      Trace.Sink.enabled = true;
      push =
        (fun e ->
          incr events;
          Buffer.add_string stream (Trace.Codec.encode e);
          Buffer.add_char stream '\n');
      flush = ignore;
    }
  in
  let setup =
    {
      Leases.Sim.default_setup with
      Leases.Sim.seed = 5L;
      n_clients = 20;
      config;
      loss = 0.05;
      tracer = sink;
      faults =
        [
          Leases.Sim.Server_drift { shard = 0; at = Time.of_sec 100.; drift = 0.01 };
          Leases.Sim.Crash_client { client = 3; at = Time.of_sec 200.; duration = span 30. };
        ];
    }
  in
  let outcome = Leases.Sim.run setup ~trace in
  let md5 s = Digest.to_hex (Digest.string s) in
  (!events, md5 (Buffer.contents stream), md5 (Leases.Metrics.to_json outcome.Leases.Sim.metrics))

let grant_pin_configs =
  let base = Leases.Config.default in
  let installed_files =
    let fileset = Experiments.V_trace.fileset ~clients:20 () in
    List.init (Workload.Fileset.installed fileset) (Workload.Fileset.installed_id fileset)
  in
  [
    ( "fixed 10 s",
      base,
      (132_074, "6dacf50f15acfab46e0a47e17a818377", "44352ae50544787f5b85a2864c60b0e0") );
    ( "zero term",
      Leases.Config.with_term base Leases.Lease.term_zero,
      (54_332, "7f1e7dd21c4c70a0935b8553b6da09af", "a0392a741b1caa05592d0d5f40c9aaea") );
    ( "infinite term",
      Leases.Config.with_term base Leases.Lease.Infinite,
      (104_902, "b263d1443aa20bba6a701972d0fe98dd", "db96bedd78e76c8c361eaedde7e7595c") );
    ( "adaptive",
      {
        base with
        Leases.Config.term_policy = Leases.Term_policy.Adaptive Leases.Term_policy.default_adaptive;
      },
      (156_689, "a40e9e27d2fea632d837b3012f6acb03", "21efae1d6b6579bc248ae53fde240676") );
    ( "term compensation",
      {
        base with
        Leases.Config.term_compensation =
          Some (fun host -> Time.Span.of_ms (float_of_int (5 * (Host.Host_id.to_int host mod 3))));
      },
      (131_822, "c849c583e9d1f5ebafdfec21e4469266", "6a41fc73b3c228acc89617d0c584b051") );
    ( "anticipatory 2 s",
      { base with Leases.Config.anticipatory_renewal = Some (span 2.) },
      (175_471, "a624d642134cb409fc4c176e39c01d94", "349097d6b4404f27a0728e6b107c912c") );
    ( "installed",
      {
        base with
        Leases.Config.installed =
          Some { Leases.Config.files = installed_files; period = span 5.; term = span 12. };
      },
      (156_610, "e8e673312f9b91308890315d1a25e3d3", "19a65f6f4c2411357f84d4141adf7ec3") );
  ]

let grant_pin_cases =
  List.map
    (fun (name, config, (want_events, want_stream, want_metrics)) ->
      Alcotest.test_case name `Quick (fun () ->
          let events, stream, metrics = grant_pin_run config in
          Alcotest.(check int) "event count" want_events events;
          Alcotest.(check string) "stream digest" want_stream stream;
          Alcotest.(check string) "metrics digest" want_metrics metrics))
    grant_pin_configs

(* --- words per op ----------------------------------------------------- *)

(* The op a words-per-op case repeats: a temporary read, which touches
   neither client nor server; a cache hit, under an infinite term; a
   one-line miss, under a zero term, where every read misses, its request
   carries its one file and its reply grants no lease; or a waited write,
   a read by client 1 and a write by client 0 10 ms later under a 10 s
   term, so that every read misses and every write waits on one
   approval. *)
type op_case = Temporary | Cache_hit | One_line_miss | Waited_write

let case_name = function
  | Temporary -> "a temporary op"
  | Cache_hit -> "a cache hit"
  | One_line_miss -> "a one-line miss"
  | Waited_write -> "a read and a waited write"

(* Words allocated (minor + major - promoted) by one [Sim.run] of [n] reads
   of one file by one client, 10 ms apart: what is left of a temporary op
   is [Cluster.drive] and the engine; after the first miss every read of
   [Cache_hit] hits.  [Waited_write] runs [n] read-write pairs, 20 ms
   apart. *)
let run_words case n =
  let temporary =
    match case with Temporary -> true | Cache_hit | One_line_miss | Waited_write -> false
  in
  let op at client kind =
    { Workload.Op.at = Time.of_us at; client; kind; file = Vstore.File_id.of_int 0; temporary }
  in
  let ops =
    match case with
    | Waited_write ->
      List.concat
        (List.init n (fun i ->
             let at = (i + 1) * 20_000 in
             [ op at 1 Workload.Op.Read; op (at + 10_000) 0 Workload.Op.Write ]))
    | Temporary | Cache_hit | One_line_miss ->
      List.init n (fun i -> op ((i + 1) * 10_000) 0 Workload.Op.Read)
  in
  let trace = Workload.Trace.of_ops ops in
  let term =
    match case with
    | One_line_miss -> Analytic.Model.Finite 0.
    | Waited_write -> Analytic.Model.Finite 10.
    | Temporary | Cache_hit -> Analytic.Model.Infinite
  in
  let n_clients = match case with Waited_write -> 2 | Temporary | Cache_hit | One_line_miss -> 1 in
  let setup = Experiments.Runner.lease_setup ~n_clients ~term () in
  (* The minor part comes from [Gc.minor_words]: on OCaml 5.1,
     [Gc.counters] counts the live minor heap at an eighth of its size. *)
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  let o = Leases.Sim.run setup ~trace in
  let used = words () -. before in
  let m = o.Leases.Sim.metrics in
  Alcotest.(check int) "every op issued" (List.length ops)
    (m.Leases.Metrics.ops_issued + m.Leases.Metrics.temp_ops);
  (match case with
  | Temporary -> ()
  | Cache_hit -> Alcotest.(check int) "one miss" 1 m.Leases.Metrics.cache_misses
  | One_line_miss -> Alcotest.(check int) "every read misses" n m.Leases.Metrics.cache_misses
  | Waited_write ->
    Alcotest.(check int) "every read misses" n m.Leases.Metrics.cache_misses;
    Alcotest.(check int) "every write commits" n m.Leases.Metrics.commits;
    Alcotest.(check int) "every write waits on one approval" n
      m.Leases.Metrics.approvals_answered);
  used

(* The marginal words of one op, over 100 k ops, must stay at most [pin]
   (+ 0.5).  [Cluster.drive] reads the packed trace at one cursor on an
   engine lane and its one closure serves every op, so a temporary op
   allocates nothing; a per-op closure or engine handle there pushes every
   case over its pin, and a per-op record the hit.  A one-line miss adds
   the client's request and its retransmission timer, the messages and
   their envelopes, and the server's reply; a per-request record on the
   grant path, a closure per delivery, or a heap that regrows its arrays
   each time its last timer is cancelled pushes it over its pin.  A read
   and a waited write add the write request, the approval round (its
   record, request, reply and two timers), the commit and its reply. *)
let check_words_per_op case ~pin () =
  let per_op = (run_words case 110_000 -. run_words case 10_000) /. 100_000. in
  if per_op > pin +. 0.5 then
    Alcotest.failf "%s allocates %.2f words, pinned at %.0f" (case_name case) per_op pin

(* --- live words per client ------------------------------------------ *)

(* Live words, read in [on_instruments] after a full major collection, of a
   world of [n] clients built for an empty trace: what the world holds
   before any op. *)
let world_live_words n =
  let live = ref 0 in
  let setup =
    {
      (Experiments.Runner.lease_setup ~n_clients:n ~term:(Analytic.Model.Finite 10.) ()) with
      Leases.Sim.on_instruments =
        (fun _ _ ->
          Gc.full_major ();
          live := (Gc.stat ()).Gc.live_words);
    }
  in
  ignore (Leases.Sim.run setup ~trace:(Workload.Trace.of_ops []));
  !live

(* The marginal live words of one client, between worlds of 1 000 and
   2 000, must stay at most [pin] (+ 0.5): its record, clock (with no
   timer table until it arms a timer), jitter RNG, seven counters,
   retransmission table, file gate (with no waiter table until an
   operation waits), empty cache and per-server tables and the handlers it
   registers with the net and the liveness table: 116.05 words, 123.05
   while it kept a table of the servers it had a renewal outstanding to. *)
let check_words_per_client ~pin () =
  let per_client = float_of_int (world_live_words 2_000 - world_live_words 1_000) /. 1_000. in
  if per_client > pin +. 0.5 then
    Alcotest.failf "a client holds %.2f live words after world build, pinned at %.0f" per_client
      pin

(* --- live words per touched file ---------------------------------------- *)

(* Live words, after a full major collection, of a one-client world that
   read and then wrote [file] under a 10 s term, read while the world is
   still reachable. *)
let touched_live_words file =
  let world = ref None in
  let op at kind =
    { Workload.Op.at = Time.of_sec at; client = 0; kind; file = Vstore.File_id.of_int file;
      temporary = false }
  in
  let trace = Workload.Trace.of_ops [ op 1. Workload.Op.Read; op 2. Workload.Op.Write ] in
  let setup =
    {
      (Experiments.Runner.lease_setup ~term:(Analytic.Model.Finite 10.) ()) with
      Leases.Sim.on_instruments = (fun w _ -> world := Some w);
    }
  in
  let o = Leases.Sim.run setup ~trace in
  Alcotest.(check int) "one commit" 1 o.Leases.Sim.metrics.Leases.Metrics.commits;
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity !world);
  live

(* The extra live words that a read and a write on file 6x10^7 cost over
   the same ops on file 0 must stay at most [pin]: the store and the lease
   table each keep a directory word per chunk of file ids below the file
   and one chunk, so a per-id array, or a bitmap spanning the ids, in
   either fails it. *)
let check_far_file_words ~pin () =
  let extra = touched_live_words 60_000_000 - touched_live_words 0 in
  if extra > pin then
    Alcotest.failf "file 6x10^7 holds %d live words more than file 0, pinned at %d" extra pin

let () =
  Alcotest.run "sim"
    [
      ( "consistency",
        [
          Alcotest.test_case "no violations, any term" `Quick test_no_violations_any_term;
          Alcotest.test_case "multi-client sharing" `Quick test_multi_client_sharing;
          Alcotest.test_case "consistency under loss" `Quick test_consistency_under_loss;
        ] );
      ( "model validation",
        [
          Alcotest.test_case "matches formula 1" `Slow test_matches_analytic_model;
          Alcotest.test_case "zero term exact" `Quick test_zero_term_exact;
          Alcotest.test_case "load monotone in term" `Quick test_longer_term_fewer_messages;
          Alcotest.test_case "hit ratio grows" `Quick test_hit_ratio_grows_with_term;
          Alcotest.test_case "bursty sharper knee" `Slow test_bursty_sharper_knee;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "all ops complete" `Quick test_all_ops_complete;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "temporary ops bypass" `Quick test_temporary_ops_bypass_server;
          Alcotest.test_case "adaptive policy" `Quick test_adaptive_policy_runs;
          Alcotest.test_case "metrics printing" `Quick test_metrics_printing;
        ] );
      ("grant pins", grant_pin_cases);
      ( "allocation",
        [
          Alcotest.test_case "temporary op words" `Quick (check_words_per_op Temporary ~pin:0.);
          Alcotest.test_case "cache hit words" `Quick (check_words_per_op Cache_hit ~pin:11.);
          Alcotest.test_case "one-line miss words" `Quick
            (check_words_per_op One_line_miss ~pin:71.);
          Alcotest.test_case "waited write words" `Quick
            (check_words_per_op Waited_write ~pin:297.);
          Alcotest.test_case "live words a client" `Quick (check_words_per_client ~pin:116.);
          Alcotest.test_case "far file words" `Quick (check_far_file_words ~pin:500_000);
        ] );
    ]
