(* The trace subsystem: codec round-trips, sink semantics, lifecycle
   reconstruction, and the trace-driven invariant checker — on hand-built
   streams, on a clean end-to-end run, and on a seeded clock fault the
   checker must catch. *)

open Simtime

let sec = Time.of_sec
let file = Vstore.File_id.of_int

let read_op ~at ~client ~f =
  { Workload.Op.at = sec at; client; kind = Workload.Op.Read; file = f; temporary = false }

let write_op ~at ~client ~f =
  { Workload.Op.at = sec at; client; kind = Workload.Op.Write; file = f; temporary = false }

(* --- codec: decode (encode e) = e for every event shape ---------------- *)

let gen_time = QCheck.Gen.(map (fun n -> float_of_int n /. 1024.) (int_bound 100_000_000))
let gen_id = QCheck.Gen.int_bound 1_000
let gen_opt g = QCheck.Gen.(oneof [ return None; map Option.some g ])

let gen_kind =
  let open QCheck.Gen in
  let open Trace.Event in
  oneof
    [
      (let* f = gen_id and* h = gen_id and* t = gen_opt gen_time and* e = gen_opt gen_time
       and* now = gen_time and* r = bool in
       return (Lease_grant { file = f; holder = h; term_s = t; server_expiry = e; server_now = now; renewal = r }));
      (let* f = gen_id and* h = gen_id and* c = oneofl [ Approved; Writer_self ] in
       return (Lease_release { file = f; holder = h; cause = c }));
      (let* w = gen_id and* f = gen_id and* wr = gen_id and* waiting = list_size (int_bound 5) gen_id
       and* d = gen_opt gen_time and* now = gen_time in
       return (Wait_begin { write = w; op = w; file = f; writer = wr; waiting; deadline = d; server_now = now }));
      (let* w = gen_id and* f = gen_id in
       return (Wait_expire { write = w; file = f }));
      (let* w = gen_id and* f = gen_id and* dsts = list_size (int_bound 5) gen_id in
       return (Approval_request { write = w; file = f; dsts }));
      (let* w = gen_id and* f = gen_id and* h = gen_id in
       return (Approval_reply { write = w; file = f; holder = h }));
      (let* w = gen_opt gen_id and* f = gen_id and* wr = gen_id and* v = gen_id
       and* now = gen_time and* waited = gen_time in
       return (Commit { write = w; op = f; file = f; writer = wr; version = v; server_now = now; waited_s = waited }));
      (let* f = gen_id and* u = gen_time in
       return (Installed_cover { file = f; until = u }));
      (let* h = gen_id and* f = gen_id and* v = gen_id and* e = gen_opt gen_time and* now = gen_time in
       return (Client_lease { host = h; file = f; version = v; expiry = e; local_now = now }));
      (let* h = gen_id and* f = gen_id and* v = gen_id and* now = gen_time in
       return (Cache_hit { host = h; file = f; version = v; local_now = now }));
      (let* h = gen_id and* f = gen_id in
       return (Cache_miss { host = h; file = f }));
      (let* h = gen_id and* f = gen_id in
       return (Cache_invalidate { host = h; file = f }));
      (let* s = gen_id and* d = gen_id and* corr = gen_id
       and* k = oneofl [ M_read_req; M_approve_rep; M_other "msg with \"quotes\" and \\ slashes\n" ] in
       return (Net_send { src = s; dst = d; kind = k; corr }));
      (let* s = gen_id and* d = gen_id and* k = oneofl [ M_read_rep; M_installed ] in
       return (Net_deliver { src = s; dst = d; kind = k; corr = -1 }));
      (let* s = gen_id and* d = gen_id and* corr = gen_id
       and* k = oneofl [ M_write_req; M_extend_req ]
       and* c = oneofl [ Loss; Partition; Down ] in
       return (Net_drop { src = s; dst = d; kind = k; corr; cause = c }));
      map (fun h -> Crash { host = h }) gen_id;
      map (fun h -> Recover { host = h }) gen_id;
      (let* h = gen_id and* d = oneofl [ -0.5; 0.; 1.5 ] in
       return (Clock_drift { host = h; drift = d }));
      (let* h = gen_id and* s = gen_time in
       return (Clock_step { host = h; step_s = s }));
      map (fun p -> Heartbeat { pending = p }) gen_id;
    ]

let gen_event =
  QCheck.Gen.(
    let* at = gen_time and* ev = gen_kind in
    return { Trace.Event.at; ev })

let event_arb =
  QCheck.make gen_event ~print:(fun e -> Format.asprintf "%a" Trace.Event.pp e)

(* Structural equality, kept here so the trace library itself carries no
   polymorphic compare. *)
let event_equal (a : Trace.Event.t) b = compare a b = 0

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec decode . encode = id" ~count:500 event_arb (fun e ->
      match Trace.Codec.decode (Trace.Codec.encode e) with
      | Ok back -> event_equal e back
      | Error _ -> false)

let test_codec_rejects_garbage () =
  List.iter
    (fun line ->
      match Trace.Codec.decode line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded garbage %S" line)
    [ ""; "not json"; "{}"; {|{"at": 1.0}|}; {|{"at": 1.0, "ev": "no-such-kind"}|};
      {|{"at": 1.0, "ev": "cache-hit"}|}; {|{"at": 1.0, "ev": "cache-hit", "host": 1, "file": 2, "version": 3, "now": 4.0} trailing|} ]

(* --- sinks -------------------------------------------------------------- *)

let test_null_sink_disabled () =
  Alcotest.(check bool) "null disabled" false (Trace.Sink.enabled Trace.Sink.null);
  Alcotest.(check bool) "tee of nulls disabled" false
    (Trace.Sink.enabled (Trace.Sink.tee [ Trace.Sink.null; Trace.Sink.null ]))

(* --- lifecycle reconstruction on a hand-built stream -------------------- *)

let ev at kind = { Trace.Event.at; ev = kind }

let hand_stream =
  let open Trace.Event in
  [
    ev 1.0 (Lease_grant { file = 7; holder = 1; term_s = Some 10.; server_expiry = Some 11.0; server_now = 1.0; renewal = false });
    ev 2.0 (Lease_grant { file = 7; holder = 2; term_s = Some 10.; server_expiry = Some 12.0; server_now = 2.0; renewal = false });
    ev 5.0 (Lease_grant { file = 7; holder = 1; term_s = Some 10.; server_expiry = Some 15.0; server_now = 5.0; renewal = true });
    ev 6.0 (Wait_begin { write = 0; op = 100; file = 7; writer = 3; waiting = [ 1; 2 ]; deadline = Some 15.0; server_now = 6.0 });
    ev 6.5 (Approval_reply { write = 0; file = 7; holder = 2 });
    ev 6.5 (Lease_release { file = 7; holder = 2; cause = Approved });
    ev 15.0 (Wait_expire { write = 0; file = 7 });
    ev 15.0 (Commit { write = Some 0; op = 100; file = 7; writer = 3; version = 1; server_now = 15.0; waited_s = 9.0 });
  ]

let test_lifecycle_reconstruction () =
  let life = Trace.Lifecycle.build hand_stream in
  Alcotest.(check int) "one commit" 1 life.Trace.Lifecycle.commits;
  (match life.Trace.Lifecycle.leases with
  | [ a; b ] ->
    Alcotest.(check int) "first grant holder" 1 a.Trace.Lifecycle.holder;
    Alcotest.(check int) "renewal folded in" 1 a.Trace.Lifecycle.renewals;
    Alcotest.(check (option (float 1e-9))) "expiry tracks renewal" (Some 15.0)
      a.Trace.Lifecycle.last_expiry;
    (match a.Trace.Lifecycle.end_cause with
    | Trace.Lifecycle.Commit_sweep -> ()
    | _ -> Alcotest.fail "holder 1 should end by commit sweep");
    (match b.Trace.Lifecycle.end_cause with
    | Trace.Lifecycle.Released Trace.Event.Approved -> ()
    | _ -> Alcotest.fail "holder 2 should end by approval release")
  | l -> Alcotest.failf "expected 2 lease lifecycles, got %d" (List.length l));
  match life.Trace.Lifecycle.waits with
  | [ w ] ->
    Alcotest.(check bool) "ended by expiry" true w.Trace.Lifecycle.by_expiry;
    Alcotest.(check (option (float 1e-9))) "authoritative wait" (Some 9.0)
      w.Trace.Lifecycle.waited_s;
    let resolution holder =
      match
        List.find_opt (fun b -> b.Trace.Lifecycle.b_holder = holder) w.Trace.Lifecycle.blockers
      with
      | Some b -> b.Trace.Lifecycle.resolution
      | None -> Alcotest.failf "blocker %d missing" holder
    in
    (match resolution 2 with
    | Some (Trace.Lifecycle.Res_approved at) -> Alcotest.(check (float 1e-9)) "approved at" 6.5 at
    | _ -> Alcotest.fail "holder 2 should resolve by approval");
    (match resolution 1 with
    | Some (Trace.Lifecycle.Res_expired at) -> Alcotest.(check (float 1e-9)) "expired at" 15.0 at
    | _ -> Alcotest.fail "holder 1 should resolve by expiry")
  | l -> Alcotest.failf "expected 1 wait, got %d" (List.length l)

(* --- checker on hand-built streams -------------------------------------- *)

let invariants report =
  List.map (fun v -> v.Trace.Checker.invariant) report.Trace.Checker.violations

let test_checker_clean_hand_stream () =
  let open Trace.Event in
  let report =
    Trace.Checker.check
      [
        ev 1.0 (Lease_grant { file = 3; holder = 1; term_s = Some 10.; server_expiry = Some 11.0; server_now = 1.0; renewal = false });
        ev 1.01 (Client_lease { host = 1; file = 3; version = 0; expiry = Some 10.5; local_now = 1.01 });
        ev 2.0 (Cache_hit { host = 1; file = 3; version = 0; local_now = 2.0 });
        ev 5.0 (Lease_release { file = 3; holder = 1; cause = Approved });
        ev 5.0 (Cache_invalidate { host = 1; file = 3 });
        ev 5.1 (Commit { write = None; op = -1; file = 3; writer = 2; version = 1; server_now = 5.1; waited_s = 0. });
      ]
  in
  Alcotest.(check bool) "clean" true (Trace.Checker.ok report);
  Alcotest.(check int) "hits checked" 1 report.Trace.Checker.checked_hits;
  Alcotest.(check int) "commits checked" 1 report.Trace.Checker.checked_commits

let test_checker_flags_stale_hit () =
  let open Trace.Event in
  let report =
    Trace.Checker.check
      [
        ev 1.0 (Client_lease { host = 1; file = 3; version = 0; expiry = Some 30.; local_now = 1.0 });
        ev 2.0 (Commit { write = None; op = -1; file = 3; writer = 2; version = 1; server_now = 2.0; waited_s = 0. });
        ev 3.0 (Cache_hit { host = 1; file = 3; version = 0; local_now = 3.0 });
      ]
  in
  Alcotest.(check bool) "flagged" false (Trace.Checker.ok report);
  Alcotest.(check (list string)) "as stale-hit" [ "stale-hit" ] (invariants report)

let test_checker_flags_commit_over_live_lease () =
  let open Trace.Event in
  let report =
    Trace.Checker.check
      [
        ev 1.0 (Lease_grant { file = 3; holder = 1; term_s = Some 10.; server_expiry = Some 11.0; server_now = 1.0; renewal = false });
        ev 2.0 (Commit { write = None; op = -1; file = 3; writer = 2; version = 1; server_now = 2.0; waited_s = 0. });
      ]
  in
  Alcotest.(check (list string)) "as commit-vs-lease" [ "commit-vs-lease" ] (invariants report);
  (* One commit flags the non-writers in ascending holder order and drops
     every lease on its file, but only on its file. *)
  let grant at file holder =
    ev at (Lease_grant { file; holder; term_s = Some 10.; server_expiry = Some (at +. 10.); server_now = at; renewal = false })
  in
  let commit at file writer version =
    ev at (Commit { write = None; op = -1; file; writer; version; server_now = at; waited_s = 0. })
  in
  let flagged_holders report =
    List.map
      (fun v -> Scanf.sscanf v.Trace.Checker.detail "commit of file %d v%d while host %d" (fun _ _ h -> h))
      report.Trace.Checker.violations
  in
  let report =
    Trace.Checker.check
      [ grant 1.0 3 7; grant 1.1 3 2; grant 1.2 3 5; grant 1.3 4 9; commit 2.0 3 5 1; commit 2.1 3 6 2;
        commit 2.2 4 6 1 ]
  in
  Alcotest.(check (list int)) "holders in ascending order, then only file 4's" [ 2; 7; 9 ]
    (flagged_holders report);
  (* A server crash sweeps only the files that server owns. *)
  let report =
    Trace.Checker.check ~servers:[ 0; 1 ] ~owner:(fun f -> f mod 2)
      [ grant 1.0 3 9; grant 1.0 4 9; ev 1.5 (Crash { host = 1 }); commit 2.0 3 6 1; commit 2.0 4 6 1 ]
  in
  Alcotest.(check (list int)) "the other shard's lease survives the crash" [ 9 ] (flagged_holders report);
  Alcotest.(check bool) "and it is file 4's" true
    (List.for_all
       (fun v -> Scanf.sscanf v.Trace.Checker.detail "commit of file %d" (fun f -> f = 4))
       report.Trace.Checker.violations)

let test_checker_flags_unbacked_hit () =
  let open Trace.Event in
  let report =
    Trace.Checker.check [ ev 1.0 (Cache_hit { host = 1; file = 3; version = 0; local_now = 1.0 }) ]
  in
  Alcotest.(check (list string)) "as local-read-validity" [ "local-read-validity" ]
    (invariants report)

let test_checker_expired_hit () =
  let open Trace.Event in
  let report =
    Trace.Checker.check
      [
        ev 1.0 (Client_lease { host = 1; file = 3; version = 0; expiry = Some 5.0; local_now = 1.0 });
        ev 6.0 (Cache_hit { host = 1; file = 3; version = 0; local_now = 6.0 });
      ]
  in
  Alcotest.(check (list string)) "expired lease cannot back a hit" [ "local-read-validity" ]
    (invariants report)

(* --- end to end: clean traced run vs. seeded clock fault ----------------- *)

let traced_run ?(faults = []) ?config ~term ops =
  let buf = Trace.Sink.buffer () in
  let setup =
    {
      (Experiments.Runner.lease_setup ~n_clients:2 ?config ~term ()) with
      Leases.Sim.faults;
      tracer = Trace.Sink.buffer_sink buf;
    }
  in
  let m = Experiments.Runner.run_lease setup (Workload.Trace.of_ops ops) in
  (m, Trace.Sink.buffer_contents buf)

let busy_ops =
  List.concat_map
    (fun i ->
      let t = float_of_int i in
      [
        read_op ~at:(3. *. t +. 1.) ~client:(i mod 2) ~f:(file (i mod 3));
        write_op ~at:(3. *. t +. 2.) ~client:((i + 1) mod 2) ~f:(file (i mod 3));
        read_op ~at:(3. *. t +. 2.5) ~client:(i mod 2) ~f:(file (i mod 3));
      ])
    (List.init 20 Fun.id)

let test_clean_run_no_violations () =
  let m, events = traced_run ~term:(Analytic.Model.Finite 10.) busy_ops in
  let report = Trace.Checker.check events in
  if not (Trace.Checker.ok report) then
    Alcotest.failf "clean run flagged: %a" (fun ppf r -> Trace.Checker.pp_report ppf r) report;
  Alcotest.(check int) "checker saw every hit" m.Leases.Metrics.cache_hits
    report.Trace.Checker.checked_hits;
  Alcotest.(check int) "checker saw every commit" m.Leases.Metrics.commits
    report.Trace.Checker.checked_commits;
  let life = Trace.Lifecycle.build events in
  Alcotest.(check int) "lifecycle counts the commits" m.Leases.Metrics.commits
    life.Trace.Lifecycle.commits;
  Alcotest.(check int) "oracle agrees" 0 m.Leases.Metrics.oracle_violations

let test_fast_server_clock_caught () =
  (* A fast server clock expires leases early by the server's reckoning:
     with a wait-only server (no approval callback to save us) the commit
     lands while the client still trusts its lease — the unsafe polarity
     of Section 5, and the checker must catch it from the trace alone. *)
  let config = { Leases.Config.default with Leases.Config.callback_on_write = false } in
  let ops =
    [
      read_op ~at:1. ~client:0 ~f:(file 0);
      write_op ~at:4. ~client:1 ~f:(file 0);
      read_op ~at:12. ~client:0 ~f:(file 0);
    ]
  in
  let m, events =
    traced_run ~config ~term:(Analytic.Model.Finite 30.)
      ~faults:[ Leases.Sim.Server_drift { shard = 0; at = sec 2.; drift = 2.0 } ]
      ops
  in
  let report = Trace.Checker.check events in
  Alcotest.(check bool) "checker flags the fault" false (Trace.Checker.ok report);
  Alcotest.(check bool) "as a stale hit" true
    (List.mem "stale-hit" (invariants report));
  Alcotest.(check bool) "oracle agrees it is a real violation" true
    (m.Leases.Metrics.oracle_violations >= 1)

(* --- trace-order golden ---------------------------------------------------- *)

(* Pins the exact encoded event stream of a faulted 20-client run, so any
   change to the order in which tables are iterated (lease reaps, timer
   re-arms after a clock fault, retransmissions under loss) shows up here
   even when every metric stays the same.  Equivalent to
   [simulate -p leases -t 10 -n 20 -d 600 -s 5 --loss 0.02
    --fault server-drift=100,0.01 --fault crash-client=3,200,30 --trace F].
   Two digests: the stream digest pins the order; the multiset digest (the
   encoded lines sorted bytewise) pins which events happen, so a re-blessed
   order cannot hide a changed event. *)
let test_trace_order_golden () =
  let trace =
    (Experiments.V_trace.poisson ~seed:5L ~clients:20 ~duration:(Time.Span.of_sec 600.) ())
      .Experiments.V_trace.trace
  in
  let lines = ref [] in
  let sink =
    {
      Trace.Sink.enabled = true;
      push = (fun e -> lines := Trace.Codec.encode e :: !lines);
      flush = ignore;
    }
  in
  let setup =
    {
      (Experiments.Runner.lease_setup ~n_clients:20 ~term:(Analytic.Model.Finite 10.) ()) with
      Leases.Sim.seed = 5L;
      loss = 0.02;
      tracer = sink;
      faults =
        [
          Leases.Sim.Server_drift { shard = 0; at = sec 100.; drift = 0.01 };
          Leases.Sim.Crash_client { client = 3; at = sec 200.; duration = Time.Span.of_sec 30. };
        ];
    }
  in
  ignore (Experiments.Runner.run_lease setup trace);
  let lines = List.rev !lines in
  let digest lines =
    let out = Buffer.create (1 lsl 24) in
    List.iter
      (fun line ->
        Buffer.add_string out line;
        Buffer.add_char out '\n')
      lines;
    Digest.to_hex (Digest.string (Buffer.contents out))
  in
  Alcotest.(check int) "event count" 248_285 (List.length lines);
  Alcotest.(check string) "multiset digest" "3662841caa534d75de35515b3b32873a"
    (digest (List.sort String.compare lines));
  (* Re-blessed when shared lease slots began reaping from an expiry heap:
     one reap pass now emits its [lease-expire] events in (expiry, holder)
     order instead of holder-table bucket order.  The multiset is unchanged. *)
  Alcotest.(check string) "stream digest" "b74cc28f236130b87f232e4e26e3b9b3" (digest lines)

(* --- critical path: phase-partition conservation under faults ----------- *)

(* Attributed phases must sum to each completed operation's client-observed
   latency by construction; the property hammers that invariant under
   random message loss, client partitions and clock drift.  No crash
   faults: a crashed host abandons its open operations, and the invariant
   quantifies over completed operations only (clock drift cannot break it
   either — segments are cut at engine instants). *)
let conservation_case_arb =
  let open QCheck.Gen in
  let gen_fault =
    oneof
      [
        map
          (fun (at, dur) ->
            Leases.Sim.Partition_clients
              {
                clients = [ 0 ];
                at = sec (1. +. float_of_int at);
                duration = Time.Span.of_sec (1. +. float_of_int dur);
              })
          (pair (int_bound 40) (int_bound 4));
        map
          (fun (at, r) ->
            Leases.Sim.Client_drift
              { client = 1; at = sec (float_of_int at); drift = 0.5 +. (float_of_int r /. 10.) })
          (pair (int_bound 40) (int_bound 15));
        map
          (fun (at, r) ->
            Leases.Sim.Server_drift
              { shard = 0; at = sec (float_of_int at); drift = 0.5 +. (float_of_int r /. 10.) })
          (pair (int_bound 40) (int_bound 15));
      ]
  in
  let gen_case =
    map
      (fun ((loss_pct, seed), faults) -> (float_of_int loss_pct /. 100., Int64.of_int seed, faults))
      (pair (pair (int_bound 30) (int_bound 10_000)) (list_size (int_bound 3) gen_fault))
  in
  QCheck.make gen_case ~print:(fun (loss, seed, faults) ->
      Printf.sprintf "loss=%.2f seed=%Ld faults=[%s]" loss seed
        (String.concat "; " (List.map Leases.Sim.fault_to_spec faults)))

let prop_phase_conservation =
  QCheck.Test.make ~name:"phases sum to client-observed latency" ~count:30 conservation_case_arb
    (fun (loss, seed, faults) ->
      let analyzer = Trace.Critical_path.create () in
      let setup =
        {
          (Experiments.Runner.lease_setup ~n_clients:2 ~term:(Analytic.Model.Finite 10.) ()) with
          Leases.Sim.faults;
          loss;
          seed;
          tracer = Trace.Critical_path.sink analyzer;
        }
      in
      ignore (Experiments.Runner.run_lease setup (Workload.Trace.of_ops busy_ops));
      let r = Trace.Critical_path.report analyzer in
      if r.Trace.Critical_path.r_checked = 0 then
        QCheck.Test.fail_report "no completed operations reached the conservation check";
      if r.Trace.Critical_path.r_max_err > 1e-9 then
        QCheck.Test.fail_reportf "phases do not partition latency: max |error| = %g s over %d ops"
          r.Trace.Critical_path.r_max_err r.Trace.Critical_path.r_checked;
      true)

let () =
  Alcotest.run "trace"
    [
      ( "codec",
        QCheck_alcotest.to_alcotest prop_codec_roundtrip
        :: [ Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage ] );
      ( "sinks",
        [
          Alcotest.test_case "null disabled" `Quick test_null_sink_disabled;
        ] );
      ( "lifecycle",
        [ Alcotest.test_case "reconstruction" `Quick test_lifecycle_reconstruction ] );
      ( "checker",
        [
          Alcotest.test_case "clean hand stream" `Quick test_checker_clean_hand_stream;
          Alcotest.test_case "stale hit" `Quick test_checker_flags_stale_hit;
          Alcotest.test_case "commit over live lease" `Quick test_checker_flags_commit_over_live_lease;
          Alcotest.test_case "unbacked hit" `Quick test_checker_flags_unbacked_hit;
          Alcotest.test_case "expired hit" `Quick test_checker_expired_hit;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "clean run has no violations" `Quick test_clean_run_no_violations;
          Alcotest.test_case "fast server clock caught" `Quick test_fast_server_clock_caught;
          Alcotest.test_case "trace-order golden" `Quick test_trace_order_golden;
          QCheck_alcotest.to_alcotest prop_phase_conservation;
        ] );
    ]
