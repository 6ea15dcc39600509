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

let lifecycle ?servers ?owner events =
  let life = Trace.Lifecycle.create ?servers ?owner () in
  List.iter (Trace.Lifecycle.feed life) events;
  life

let test_lifecycle_reconstruction () =
  let life = lifecycle hand_stream in
  Alcotest.(check int) "one commit" 1 (Trace.Lifecycle.commits life);
  (match Trace.Lifecycle.leases life with
  | [ a; b ] ->
    Alcotest.(check int) "first grant holder" 1 a.Trace.Lifecycle.holder;
    Alcotest.(check int) "renewal folded in" 1 a.Trace.Lifecycle.renewals;
    Alcotest.(check (option (float 1e-9))) "expiry tracks renewal" (Some 15.0)
      a.Trace.Lifecycle.last_expiry;
    (match a.Trace.Lifecycle.ended with
    | Some (Trace.Lease_state.Commit_sweep, _) -> ()
    | _ -> Alcotest.fail "holder 1 should end by commit sweep");
    (match b.Trace.Lifecycle.ended with
    | Some (Trace.Lease_state.Released Trace.Event.Approved, _) -> ()
    | _ -> Alcotest.fail "holder 2 should end by approval release")
  | l -> Alcotest.failf "expected 2 lease lifecycles, got %d" (List.length l));
  match Trace.Lifecycle.waits life with
  | [ w ] ->
    Alcotest.(check bool) "ended by expiry" true w.Trace.Lease_state.by_expiry;
    Alcotest.(check (option (float 1e-9))) "authoritative wait" (Some 9.0)
      w.Trace.Lease_state.waited_s;
    let resolution holder =
      match
        List.find_opt (fun b -> b.Trace.Lease_state.b_holder = holder) w.Trace.Lease_state.blockers
      with
      | Some b -> b.Trace.Lease_state.resolution
      | None -> Alcotest.failf "blocker %d missing" holder
    in
    (match resolution 2 with
    | Some (Trace.Lease_state.Res_approved at) -> Alcotest.(check (float 1e-9)) "approved at" 6.5 at
    | _ -> Alcotest.fail "holder 2 should resolve by approval");
    (match resolution 1 with
    | Some (Trace.Lease_state.Res_expired at) -> Alcotest.(check (float 1e-9)) "expired at" 15.0 at
    | _ -> Alcotest.fail "holder 1 should resolve by expiry")
  | l -> Alcotest.failf "expected 1 wait, got %d" (List.length l)

(* Two servers, files by parity: server 1 crashes while each server has a
   lease out and a write waiting on it.  Only server 1's leases end with
   the crash and only its wait resolves; server 0's lease is renewed after
   the crash and runs on, and its wait stays unresolved. *)
let two_servers = [ 0; 1 ]
let by_parity f = f mod 2

let crash_stream =
  let open Trace.Event in
  let grant at file holder renewal =
    ev at
      (Lease_grant
         { file; holder; term_s = Some 10.; server_expiry = Some (at +. 10.); server_now = at; renewal })
  in
  [
    grant 1.0 2 5 false;
    grant 1.0 3 5 false;
    grant 1.5 4 6 false;
    grant 1.5 5 6 false;
    ev 2.0 (Wait_begin { write = 10; op = 1; file = 4; writer = 7; waiting = [ 6 ]; deadline = None; server_now = 2.0 });
    ev 2.0 (Wait_begin { write = (1 lsl 32) + 10; op = 2; file = 5; writer = 7; waiting = [ 6 ]; deadline = None; server_now = 2.0 });
    ev 3.0 (Crash { host = 1 });
    grant 4.0 2 5 true;
    ev 5.0 (Heartbeat { pending = 1 });
  ]

let test_sharded_chrome_export () =
  let path = Filename.temp_file "leases_chrome" ".json" in
  Out_channel.with_open_text path (fun oc ->
      Trace.Chrome.write ~servers:two_servers ~owner:by_parity oc crash_stream);
  let doc = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let str key j = match Trace.Json.member key j with Some (Trace.Json.Str s) -> s | _ -> "" in
  let spans =
    match Trace.Json.parse doc with
    | Ok d -> (
      match Trace.Json.member "traceEvents" d with
      | Some (Trace.Json.Arr evs) -> List.filter (fun j -> str "ph" j = "X") evs
      | _ -> Alcotest.fail "no traceEvents array")
    | Error why -> Alcotest.failf "unparsable export: %s" why
  in
  let lease_ends =
    List.filter_map
      (fun j ->
        match Trace.Json.member "args" j with
        | Some args when String.starts_with ~prefix:"lease" (str "name" j) ->
          Some (str "name" j, str "end" args)
        | _ -> None)
      spans
  in
  Alcotest.(check (list (pair string string)))
    "only server 1's leases end with the crash"
    [
      ("lease f2", "active");
      ("lease f3", "server-crash");
      ("lease f4", "active");
      ("lease f5", "server-crash");
    ]
    lease_ends;
  Alcotest.(check (list (pair string int)))
    "each wait is drawn under its file's server"
    [ ("write-wait w10 f4", 0); ("write-wait w4294967306 f5", 1) ]
    (List.filter_map
       (fun j ->
         match Trace.Json.member "pid" j with
         | Some (Trace.Json.Num pid) when String.starts_with ~prefix:"write-wait" (str "name" j) ->
           Some (str "name" j, int_of_float pid)
         | _ -> None)
       spans);
  let life = lifecycle ~servers:two_servers ~owner:by_parity crash_stream in
  Alcotest.(check (list int)) "server 0's lease ran on through a renewal" [ 1; 0; 0; 0 ]
    (List.map (fun l -> l.Trace.Lifecycle.renewals) (Trace.Lifecycle.leases life));
  Alcotest.(check (list (option (float 0.)))) "only server 1's wait resolves, at the crash"
    [ None; Some 3.0 ]
    (List.map
       (fun w ->
         match w.Trace.Lease_state.blockers with
         | [ { Trace.Lease_state.resolution = Some (Trace.Lease_state.Res_expired at); _ } ] -> Some at
         | _ -> None)
       (Trace.Lifecycle.waits life))

(* A view that keeps [keep] leases records exactly the first [keep] the
   full view records, renewals and ends included, and counts every lease
   started; the renewal of a kept lease and the crash ends of leases past
   [keep] land where they should. *)
let test_lifecycle_keep () =
  let full = lifecycle ~servers:two_servers ~owner:by_parity crash_stream in
  Alcotest.(check int) "every lease counted" 4 (Trace.Lifecycle.started full);
  List.iter
    (fun keep ->
      let life = Trace.Lifecycle.create ~servers:two_servers ~owner:by_parity ~keep () in
      List.iter (Trace.Lifecycle.feed life) crash_stream;
      Alcotest.(check int) (Printf.sprintf "keep %d: every lease counted" keep) 4
        (Trace.Lifecycle.started life);
      Alcotest.(check bool) (Printf.sprintf "keep %d: the full view's first leases" keep) true
        (Trace.Lifecycle.leases life
        = List.filteri (fun i _ -> i < keep) (Trace.Lifecycle.leases full));
      Alcotest.(check int) (Printf.sprintf "keep %d: every wait" keep) 2
        (List.length (Trace.Lifecycle.waits life)))
    [ 0; 1; 2; 3; 4; 9 ];
  Alcotest.check_raises "negative keep" (Invalid_argument "Lifecycle.create: negative keep")
    (fun () -> ignore (Trace.Lifecycle.create ~keep:(-1) ()))

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
  let life = lifecycle events in
  Alcotest.(check int) "lifecycle counts the commits" m.Leases.Metrics.commits
    (Trace.Lifecycle.commits life);
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

(* --- observers: full checker and analyzer outputs, pinned ------------------- *)

(* Pin everything the two campaign observers report, not just their
   verdicts: the critical-path export (every histogram summary, phase sum
   and worst-write timeline, floats at full precision) of a lossy lease run
   with a partition, a client crash and a server crash, fed live; and the
   checker's printed report for that run and for partitioned callbacks,
   which flag stale hits.  A change to how either observer stores or sums
   its state shows up here even where every verdict stays the same. *)

let faults_of_specs specs =
  List.map
    (fun spec -> match Leases.Sim.fault_of_spec spec with Ok f -> f | Error why -> failwith why)
    specs

(* One run feeds both observers, and a writes-only analyzer beside the
   full one; the two pins below and [test_writes_only_one_server] share
   it. *)
let observed_run =
  lazy
    (let checker = Trace.Checker.create () in
     let analyzer = Trace.Critical_path.create () in
     let writes_only = Trace.Critical_path.create ~writes_only:true () in
     let setup =
       {
         (Experiments.Runner.lease_setup ~n_clients:5 ~term:(Analytic.Model.Finite 10.) ()) with
         Leases.Sim.seed = 23L;
         loss = 0.05;
         faults =
           faults_of_specs [ "partition=0,240,120"; "crash-client=0,290,30"; "crash-server=300,10" ];
         tracer =
           Trace.Sink.tee
             [
               Trace.Checker.sink checker;
               Trace.Critical_path.sink analyzer;
               Trace.Critical_path.sink writes_only;
             ];
       }
     in
     let trace =
       (Experiments.V_trace.shared_heavy ~seed:23L ~clients:5 ~duration:(Time.Span.of_sec 600.) ())
         .Experiments.V_trace.trace
     in
     ignore (Leases.Sim.run setup ~trace);
     (checker, analyzer, writes_only))

let test_pin_critical_path_export () =
  let _, analyzer, _ = Lazy.force observed_run in
  let r = Trace.Critical_path.report analyzer in
  Alcotest.(check int) "completed ops" 638 r.Trace.Critical_path.r_checked;
  Alcotest.(check string) "export digest" "59111ae4c7468b89083560d48fb79749"
    (Digest.to_hex (Digest.string (Trace.Critical_path.export r)))

let test_pin_checker_report () =
  let checker, _, _ = Lazy.force observed_run in
  Alcotest.(check string) "lease run"
    "checked 27857 events (2001 cache hits, 108 commits): OK, no violations"
    (Format.asprintf "%a" Trace.Checker.pp_report (Trace.Checker.report checker))

let test_pin_checker_stale_report () =
  let checker = Trace.Checker.create () in
  ignore
    (Baselines.Callback.run
       { Leases.Sim.default_setup with
         Leases.Sim.n_clients = 4; seed = 3L;
         faults = faults_of_specs [ "partition=0,100,60" ];
         tracer = Trace.Checker.sink checker }
       ~trace:
         (Experiments.V_trace.shared_heavy ~seed:3L ~clients:4 ~duration:(Time.Span.of_sec 300.) ())
           .Experiments.V_trace.trace);
  Alcotest.(check string) "partitioned callbacks"
    (String.concat "\n"
       [
         "checked 6362 events (799 cache hits, 51 commits): 5 violations";
         "[  156.646900] commit-vs-lease      commit of file 43 v2 with infinite lease held by 1";
         "[  178.705553] stale-hit            host 1 read file 43 at v1 but v2 is committed";
         "[  189.630725] stale-hit            host 1 read file 43 at v1 but v2 is committed";
         "[  192.362033] stale-hit            host 1 read file 43 at v1 but v2 is committed";
         "[  201.465721] stale-hit            host 1 read file 43 at v1 but v2 is committed";
       ])
    (Format.asprintf "%a" Trace.Checker.pp_report (Trace.Checker.report checker))

(* --- the writes-only analyzer: the full analyzer's writes, nothing else --- *)

(* What the two reports must share, as one export: the write row, every
   field of the worst writes, and each server's write count and phase
   sums.  The other rows, the conservation figures and [srv_ops] cover
   different operations by design and are left out. *)
let write_view (r : Trace.Critical_path.report) =
  let open Trace.Critical_path in
  export
    {
      r with
      r_kinds = List.filter (fun ks -> ks.ks_kind = K_write) r.r_kinds;
      r_checked = 0;
      r_max_err = 0.;
      r_servers =
        List.filter_map
          (fun s -> if s.srv_writes > 0 then Some { s with srv_ops = 0 } else None)
          r.r_servers;
    }

(* [lean], a writes-only analyzer, and [full] were fed the same stream. *)
let check_writes_only ~full ~lean =
  let open Trace.Critical_path in
  let rf = report full and rl = report lean in
  let row r kind = List.find (fun ks -> ks.ks_kind = kind) r.r_kinds in
  (* the stream holds what the comparison needs *)
  Alcotest.(check bool) "reads completed" true ((row rf K_read).ks_count > 0);
  Alcotest.(check bool) "extensions completed" true ((row rf K_extend).ks_count > 0);
  Alcotest.(check bool) "a worst write waited" true
    (List.exists (fun w -> w.w_waits <> []) rf.r_worst);
  Alcotest.(check string) "write row, worst writes and per-server write sums" (write_view rf)
    (write_view rl);
  List.iter
    (fun kind ->
      let ks = row rl kind in
      Alcotest.(check (list int))
        (op_kind_name kind ^ " row: completed, incomplete, abandoned")
        [ 0; 0; 0 ]
        [ ks.ks_count; ks.ks_incomplete; ks.ks_abandoned ])
    [ K_read; K_extend ];
  Alcotest.(check int) "conservation checks the writes" (row rf K_write).ks_count rl.r_checked;
  List.iter
    (fun s -> Alcotest.(check int) "srv_ops counts writes" s.srv_writes s.srv_ops)
    rl.r_servers;
  let sums a server =
    List.map (fun (p, v) -> Printf.sprintf "%s=%h" p v) (phase_sums_for a ~server)
  in
  List.iter
    (fun s ->
      Alcotest.(check (list string))
        (Printf.sprintf "phase_sums_for server %d" s.srv_host)
        (sums full s.srv_host) (sums lean s.srv_host))
    rf.r_servers

(* The observers' run: one server, shared-heavy, 5 % loss, a partition, a
   client crash and a server crash. *)
let test_writes_only_one_server () =
  let _, full, lean = Lazy.force observed_run in
  check_writes_only ~full ~lean

(* Four shards, shared-heavy, 5 % loss, shard 1 failing over and a client
   crash. *)
let test_writes_only_sharded () =
  let full = Trace.Critical_path.create () in
  let lean = Trace.Critical_path.create ~writes_only:true () in
  let config =
    (Experiments.Runner.lease_setup ~term:(Analytic.Model.Finite 10.) ()).Leases.Sim.config
  in
  ignore
    (Shard.Deploy.run
       {
         Shard.Deploy.default_setup with
         Shard.Deploy.seed = 3L;
         n_clients = 6;
         config;
         loss = 0.05;
         faults = faults_of_specs [ "crash-shard=1,40,8"; "crash-client=2,60,15" ];
         tracer = Trace.Sink.tee [ Trace.Critical_path.sink full; Trace.Critical_path.sink lean ];
       }
       ~trace:
         (Experiments.V_trace.shared_heavy ~seed:3L ~clients:6 ~duration:(Time.Span.of_sec 300.) ())
           .Experiments.V_trace.trace);
  check_writes_only ~full ~lean

(* --- tracedump: its whole output, pinned ----------------------------- *)

(* The built leases-sim writes a trace and the built tracedump reads it
   back; the MD5 of tracedump's stdout pins every table it prints: the
   event counts, the lease lifecycles, the write waits and the verdict. *)
let tracedump_md5 sim_args dump_args =
  let bin exe = Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ exe) in
  let trace = Filename.temp_file "leases_trace" ".jsonl" in
  let out = Filename.temp_file "leases_tracedump" ".txt" in
  let run exe args ~stdout = Sys.command (Filename.quote_command (bin exe) ~stdout args) in
  Alcotest.(check int) "leases-sim exits 0" 0
    (run "simulate.exe" (sim_args @ [ "--trace"; trace ]) ~stdout:Filename.null);
  Alcotest.(check int) "tracedump exits 0" 0 (run "tracedump.exe" (trace :: dump_args) ~stdout:out);
  let md5 = Digest.to_hex (Digest.file out) in
  Sys.remove trace;
  Sys.remove out;
  md5

(* The observers' run: loss, a partition, a client crash and a server
   crash on one server.  Recorded before tracedump streamed its input. *)
let test_tracedump_single_server () =
  Alcotest.(check string) "stdout MD5" "32a151b46fc73ea34db1b7171331d6d8"
    (tracedump_md5
       [ "-p"; "leases"; "-t"; "10"; "-w"; "shared-heavy"; "-n"; "5"; "-d"; "600"; "-s"; "23";
         "--loss"; "0.05"; "--fault"; "partition=0,240,120"; "--fault"; "crash-client=0,290,30";
         "--fault"; "crash-server=300,10" ]
       [])

(* check.sh's four-shard smoke, with shard 1 failing over mid-run.  Its
   lifecycle tables, by shard, were new when the fold became multi-server. *)
let test_tracedump_sharded () =
  Alcotest.(check string) "stdout MD5" "7f1b40cb2a0ea8fa49bd5722e3dd6967"
    (tracedump_md5
       [ "-p"; "leases"; "-t"; "10"; "-n"; "6"; "-d"; "120"; "-s"; "3"; "--shards"; "4";
         "--fault"; "crash-shard=1,40,8" ]
       [ "--shards"; "4"; "--map-seed"; "3" ])

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

(* --- allocation: words per observed event ------------------------------- *)

(* Words allocated (minor + major - promoted) by [f]; the minor part comes
   from [Gc.minor_words]: on OCaml 5.1, [Gc.counters] counts the live minor
   heap at an eighth of its size. *)
let words_of f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  f ();
  words () -. before

(* The marginal words of one unit of [run n] over 100 k units, which must
   stay at most [pin] (+ 0.5).  [run n] builds its input first and returns
   the thunk to measure, so building it is not counted, and the first
   touches of every table cancel out of the difference. *)
let check_marginal_words what ~pin run =
  let measured n =
    let go = run n in
    words_of go
  in
  let per_unit = (measured 110_000 -. measured 10_000) /. 100_000. in
  if per_unit > pin +. 0.5 then
    Alcotest.failf "%s allocates %.2f words, pinned at %.0f" what per_unit pin

(* [add] keeps its running sum in an all-float record, so it allocates
   nothing; the samples are boxed before the count starts. *)
let test_histogram_add_words () =
  check_marginal_words "a histogram add" ~pin:0. (fun n ->
      let h = Stats.Histogram.create () in
      let xs = List.init n (fun i -> 1e-6 *. float_of_int (i + 1)) in
      fun () -> List.iter (Stats.Histogram.add h) xs)

(* A renewal seen twice: the server's grant and the client's recomputed
   lease, cycling over 4 files x 3 holders that the checker already
   holds.  Versions and expiries are stored unboxed, so the pair allocates
   and retains nothing. *)
let test_checker_renewal_words () =
  check_marginal_words "a lease-grant + client-lease pair" ~pin:0. (fun n ->
      let c = Trace.Checker.create () in
      let events =
        List.concat
          (List.init n (fun i ->
               let at = 0.001 *. float_of_int i and file = i mod 4 and holder = 1 + (i mod 3) in
               [
                 ev at
                   (Trace.Event.Lease_grant
                      { file; holder; term_s = Some 10.; server_expiry = Some (at +. 10.);
                        server_now = at; renewal = true });
                 ev at
                   (Trace.Event.Client_lease
                      { host = holder; file; version = 0; expiry = Some (at +. 9.9);
                        local_now = at });
               ]))
      in
      fun () -> List.iter (Trace.Checker.feed c) events)

(* A held key's server lease ending both ways, each followed by a grant
   that holds it again, cycling over 4 files x 3 holders: a reap
   ([lease-expire]) and an approval ([lease-release]).  Ending a lease
   moves its record slot from the file's chain to the free chain, and
   the grant takes it back, so neither allocates or boxes anything. *)
let test_checker_end_words () =
  check_marginal_words "a lease-expire + lease-release on held keys" ~pin:0. (fun n ->
      let c = Trace.Checker.create () in
      let events =
        List.concat
          (List.init n (fun i ->
               let at = 0.001 *. float_of_int i and file = i mod 4 and holder = 1 + (i mod 3) in
               let grant =
                 ev at
                   (Trace.Event.Lease_grant
                      { file; holder; term_s = Some 10.; server_expiry = Some (at +. 10.);
                        server_now = at; renewal = true })
               in
               [
                 grant;
                 ev at (Trace.Event.Lease_expire { file; holder; expired_at = Some at });
                 grant;
                 ev at
                   (Trace.Event.Lease_release { file; holder; cause = Trace.Event.Approved });
               ]))
      in
      fun () -> List.iter (Trace.Checker.feed c) events)

(* A commit on a file that 3 holders lease, then the 3 holders' re-grants,
   each lapsing before the next commit.  The commit walks the file's
   chain in place and frees its record slots, which the re-grants take
   back, so neither the commit nor the re-grants allocate. *)
let test_checker_commit_words () =
  check_marginal_words "a commit + 3 re-grants" ~pin:0. (fun n ->
      let c = Trace.Checker.create () in
      let events =
        List.concat
          (List.init n (fun i ->
               let at = 0.001 *. float_of_int i in
               ev at
                 (Trace.Event.Commit
                    { write = None; op = i; file = 0; writer = 0; version = i + 1;
                      server_now = at; waited_s = 0. })
               :: List.map
                    (fun holder ->
                      ev at
                        (Trace.Event.Lease_grant
                           { file = 0; holder; term_s = Some 0.0001;
                             server_expiry = Some (at +. 0.0001); server_now = at;
                             renewal = true }))
                    [ 1; 2; 3 ]))
      in
      fun () ->
        List.iter (Trace.Checker.feed c) events;
        Alcotest.(check bool) "every commit clean" true
          (Trace.Checker.ok (Trace.Checker.report c)))

(* A read's request and reply, each sent and delivered 2.5 ms later.  A
   completed read costs its op record (17 words) and two timeline
   segments (7 each).  [Histogram.add] is inlined, so the latency and the
   seven phase totals reach the histograms unboxed (16 words when each
   was boxed for the call), and the analyzer's tables are [Int_tbl]s, so
   a lookup boxes no option and builds no closure. *)
let test_critical_path_read_words () =
  check_marginal_words "a completed read" ~pin:31. (fun n ->
      let a = Trace.Critical_path.create () in
      let events =
        List.concat
          (List.init n (fun i ->
               let t = 0.01 *. float_of_int i and corr = (1 lsl 32) + i in
               let open Trace.Event in
               [
                 ev t (Net_send { src = 1; dst = 0; kind = M_read_req; corr });
                 ev (t +. 0.0025) (Net_deliver { src = 1; dst = 0; kind = M_read_req; corr });
                 ev (t +. 0.0025) (Net_send { src = 0; dst = 1; kind = M_read_rep; corr });
                 ev (t +. 0.005) (Net_deliver { src = 0; dst = 1; kind = M_read_rep; corr });
               ]))
      in
      fun () ->
        List.iter (Trace.Critical_path.feed a) events;
        Alcotest.(check int) "every read completed" n
          (Trace.Critical_path.report ~k:0 a).Trace.Critical_path.r_checked)

(* The same reads through a writes-only analyzer: no op record, no
   segment, no histogram add; each event after the request misses the
   open-op table. *)
let test_critical_path_writes_only_read_words () =
  check_marginal_words "a completed read, writes only" ~pin:0. (fun n ->
      let a = Trace.Critical_path.create ~writes_only:true () in
      let events =
        List.concat
          (List.init n (fun i ->
               let t = 0.01 *. float_of_int i and corr = (1 lsl 32) + i in
               let open Trace.Event in
               [
                 ev t (Net_send { src = 1; dst = 0; kind = M_read_req; corr });
                 ev (t +. 0.0025) (Net_deliver { src = 1; dst = 0; kind = M_read_req; corr });
                 ev (t +. 0.0025) (Net_send { src = 0; dst = 1; kind = M_read_rep; corr });
                 ev (t +. 0.005) (Net_deliver { src = 0; dst = 1; kind = M_read_rep; corr });
               ]))
      in
      fun () ->
        List.iter (Trace.Critical_path.feed a) events;
        Alcotest.(check int) "no read followed" 0
          (Trace.Critical_path.report ~k:0 a).Trace.Critical_path.r_checked)

(* A writes-only analyzer builds its write row's eight histograms alone;
   its read and extension rows read one shared histogram that nothing
   writes.  Measured here, a writes-only [create] costs 1 179 words and a
   full one 3 387; both cost 3 375 while every analyzer built all three
   rows. *)
let test_critical_path_writes_only_create_words () =
  let create ~writes_only =
    words_of (fun () -> ignore (Sys.opaque_identity (Trace.Critical_path.create ~writes_only ())))
  in
  let full = create ~writes_only:false and lean = create ~writes_only:true and pin = 1_200. in
  if lean > pin then
    Alcotest.failf "a writes-only analyzer costs %.0f words (a full one %.0f), pinned at %.0f"
      lean full pin

(* --- the critical-path analyzer keeps only the worst writes ------------ *)

(* [n] writes by client 1, 1 s apart, each waiting 0.25 s on holder 2's
   approval; write [i]'s reply takes [(1 + i mod 7) / 8] s, so latencies
   tie exactly across writes and ids must break the ties. *)
let waited_writes n =
  List.concat
    (List.init n (fun i ->
         let t = float_of_int i and corr = (1 lsl 32) + i in
         let open Trace.Event in
         [
           ev t (Net_send { src = 1; dst = 0; kind = M_write_req; corr });
           ev (t +. 0.25) (Net_deliver { src = 1; dst = 0; kind = M_write_req; corr });
           ev (t +. 0.25)
             (Wait_begin
                { write = i; op = corr; file = 7; writer = 1; waiting = [ 2 ]; deadline = None;
                  server_now = t });
           ev (t +. 0.5) (Approval_reply { write = i; file = 7; holder = 2 });
           ev (t +. 0.5)
             (Commit
                { write = Some i; op = corr; file = 7; writer = 1; version = i + 1; server_now = t;
                  waited_s = 0.25 });
           ev (t +. 0.5) (Net_send { src = 0; dst = 1; kind = M_write_rep; corr });
           ev
             (t +. 0.5 +. (0.125 *. float_of_int (1 + (i mod 7))))
             (Net_deliver { src = 0; dst = 1; kind = M_write_rep; corr });
         ]))

(* What the analyzer holds after [n] writes does not grow with [n]: it
   keeps its [worst] slowest writes and drops every other write's record
   and wait notes.  Keeping every completed write costs ~100 words each. *)
let test_critical_path_bounded () =
  let fed n =
    let a = Trace.Critical_path.create ~worst:3 () in
    List.iter (Trace.Critical_path.feed a) (waited_writes n);
    a
  in
  let held n = Obj.reachable_words (Obj.repr (fed n)) in
  Alcotest.(check int) "words held after 2000 writes = after 500" (held 500) (held 2_000);
  let r = Trace.Critical_path.report (fed 2_000) in
  Alcotest.(check (list string)) "the three slowest, ties by id"
    [ "c1#6"; "c1#13"; "c1#20" ]
    (List.map (fun w -> Trace.Critical_path.op_name w.Trace.Critical_path.w_op)
       r.Trace.Critical_path.r_worst);
  Alcotest.check_raises "k above worst"
    (Invalid_argument "Critical_path.report: k 4 exceeds the 3 writes the analyzer keeps")
    (fun () -> ignore (Trace.Critical_path.report ~k:4 (fed 10)))

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
        [
          Alcotest.test_case "reconstruction" `Quick test_lifecycle_reconstruction;
          Alcotest.test_case "sharded chrome export" `Quick test_sharded_chrome_export;
          Alcotest.test_case "kept leases" `Quick test_lifecycle_keep;
        ] );
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
      ( "observers",
        [
          Alcotest.test_case "critical-path export" `Quick test_pin_critical_path_export;
          Alcotest.test_case "checker report" `Quick test_pin_checker_report;
          Alcotest.test_case "checker stale-hit report" `Quick test_pin_checker_stale_report;
          Alcotest.test_case "critical-path memory bounded" `Quick test_critical_path_bounded;
          Alcotest.test_case "writes-only analyzer, one server" `Quick test_writes_only_one_server;
          Alcotest.test_case "writes-only analyzer, four shards" `Quick test_writes_only_sharded;
        ] );
      ( "tracedump",
        [
          Alcotest.test_case "single-server output" `Quick test_tracedump_single_server;
          Alcotest.test_case "sharded output" `Quick test_tracedump_sharded;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "histogram add words" `Quick test_histogram_add_words;
          Alcotest.test_case "checker renewal words" `Quick test_checker_renewal_words;
          Alcotest.test_case "checker end words" `Quick test_checker_end_words;
          Alcotest.test_case "checker commit words" `Quick test_checker_commit_words;
          Alcotest.test_case "critical-path read words" `Quick test_critical_path_read_words;
          Alcotest.test_case "writes-only read words" `Quick
            test_critical_path_writes_only_read_words;
          Alcotest.test_case "writes-only create words" `Quick
            test_critical_path_writes_only_create_words;
        ] );
    ]
