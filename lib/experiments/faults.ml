open Simtime

type scenario = { name : string; lines : string list; ok : bool }

type result = { scenarios : scenario list; table : string }

let file_f = Vstore.File_id.of_int 0

let read_op ~at ~client =
  { Workload.Op.at = Time.of_sec at; client; kind = Workload.Op.Read; file = file_f;
    temporary = false }

let write_op ~at ~client =
  { Workload.Op.at = Time.of_sec at; client; kind = Workload.Op.Write; file = file_f;
    temporary = false }

let term_10 = Analytic.Model.Finite 10.

let mean_write_wait (m : Leases.Metrics.t) = Stats.Histogram.mean m.Leases.Metrics.write_wait

(* A leaseholder crashes; a write by another client is delayed by at most
   the residual term. *)
let client_crash () =
  let trace = Workload.Trace.of_ops [ read_op ~at:5. ~client:1; write_op ~at:7. ~client:0 ] in
  let setup =
    {
      (Runner.lease_setup ~n_clients:2 ~term:term_10 ()) with
      Leases.Sim.faults =
        [ Leases.Sim.Crash_client
            { client = 1; at = Time.of_sec 6.; duration = Time.Span.of_sec 60. } ];
    }
  in
  let m = Runner.run_lease setup trace in
  let wait = mean_write_wait m in
  let ok =
    m.Leases.Metrics.oracle_violations = 0
    && m.Leases.Metrics.commits = 1
    && wait > 7. && wait <= 10.5
  in
  {
    name = "client crash";
    lines =
      [
        Printf.sprintf
          "leaseholder crashed 1 s after taking a 10 s lease; the write waited %.2f s — within \
           the residual term, as promised (violations: %d)"
          wait m.Leases.Metrics.oracle_violations;
      ];
    ok;
  }

(* Server crash: recovery honours granted leases by delaying writes. *)
let server_crash wal_mode =
  let trace = Workload.Trace.of_ops [ read_op ~at:2. ~client:0; write_op ~at:6. ~client:0 ] in
  let config = { Leases.Config.default with Leases.Config.wal_mode } in
  let setup =
    {
      (Runner.lease_setup ~n_clients:1 ~config ~term:term_10 ()) with
      Leases.Sim.faults =
        [ Leases.Sim.Crash_server { at = Time.of_sec 3.; duration = Time.Span.of_sec 2. } ];
    }
  in
  let m = Runner.run_lease setup trace in
  (m, mean_write_wait m)

let server_crash_drill () =
  let m_max, wait_max = server_crash Vstore.Wal.Max_term_only in
  let m_det, wait_det = server_crash Vstore.Wal.Detailed in
  (* Max-term-only: recovery at t=5, max term 10 s -> writes wait until
     ~15; the write arrived at 6, so ~9 s.  Detailed: the lease on F was
     granted at ~2 and expires at ~12, so the same write waits only ~6 s. *)
  let ok =
    m_max.Leases.Metrics.oracle_violations = 0
    && m_det.Leases.Metrics.oracle_violations = 0
    && wait_max > 8. && wait_max <= 10.5
    && wait_det > 5. && wait_det < wait_max
  in
  {
    name = "server crash + recovery";
    lines =
      [
        Printf.sprintf
          "max-term-only record: write after restart waited %.2f s (~ the 10 s max term)"
          wait_max;
        Printf.sprintf
          "detailed record: the same write waited %.2f s (only the file's own residual lease) \
           at the cost of %d vs %d persistent-record updates"
          wait_det
          (m_det.Leases.Metrics.wal_io)
          (m_max.Leases.Metrics.wal_io);
      ];
    ok;
  }

(* Partition: leases stay consistent (writes wait); callbacks go stale. *)
let partition_drill () =
  let ops =
    [
      read_op ~at:4. ~client:1;
      write_op ~at:6. ~client:0;
      read_op ~at:10. ~client:1;
      read_op ~at:20. ~client:1;
      read_op ~at:30. ~client:1;
      read_op ~at:100. ~client:1;
    ]
  in
  let trace = Workload.Trace.of_ops ops in
  let faults =
    [ Leases.Sim.Partition_clients
        { clients = [ 1 ]; at = Time.of_sec 5.; duration = Time.Span.of_sec 60. } ]
  in
  let lease_setup =
    { (Runner.lease_setup ~n_clients:2 ~term:term_10 ()) with Leases.Sim.faults = faults }
  in
  let lease_m = Runner.run_lease lease_setup trace in
  let cb =
    (Baselines.Callback.run ~poll_period:(Time.Span.of_sec 30.) lease_setup ~trace)
      .Leases.Sim.metrics
  in
  let ok =
    lease_m.Leases.Metrics.oracle_violations = 0
    && mean_write_wait lease_m > 5.
    && cb.Leases.Metrics.oracle_violations > 0
  in
  {
    name = "partition";
    lines =
      [
        Printf.sprintf
          "leases: the write waited %.2f s for the partitioned holder's lease to expire; 0 of \
           %d reads were stale"
          (mean_write_wait lease_m) lease_m.Leases.Metrics.oracle_reads;
        Printf.sprintf
          "callbacks (AFS-style): the server gave up on the unreachable holder after its \
           timeout and committed %.2f s after the write arrived; the partitioned client then \
           served %d stale reads (staleness p99 %.1f s) until its next revalidation poll"
          (mean_write_wait cb) cb.Leases.Metrics.oracle_violations
          (Stats.Histogram.quantile cb.Leases.Metrics.staleness 0.99);
      ];
    ok;
  }

(* Total blackout: at 100 % message loss no operation can complete, but the
   lease invariant cannot be violated either — the failure mode is pure
   unavailability, never staleness. *)
let blackout_drill () =
  let ops =
    [ read_op ~at:2. ~client:0; write_op ~at:4. ~client:1; read_op ~at:8. ~client:0 ]
  in
  let trace = Workload.Trace.of_ops ops in
  let setup =
    {
      (Runner.lease_setup ~n_clients:2 ~term:term_10 ()) with
      Leases.Sim.loss = 1.0;
      drain = Time.Span.of_sec 30.;
    }
  in
  let m = Runner.run_lease setup trace in
  let ok =
    m.Leases.Metrics.oracle_violations = 0
    && m.Leases.Metrics.commits = 0
    && m.Leases.Metrics.dropped_ops = m.Leases.Metrics.ops_issued
    && m.Leases.Metrics.net_dropped_loss > 0
  in
  {
    name = "total blackout";
    lines =
      [
        Printf.sprintf
          "100%% loss: all %d issued ops stalled (%d messages dropped as loss), nothing \
           committed, and the oracle saw %d stale reads — blackout costs availability, not \
           consistency"
          m.Leases.Metrics.ops_issued m.Leases.Metrics.net_dropped_loss
          m.Leases.Metrics.oracle_violations;
      ];
    ok;
  }

(* Clock faults: a fast server clock is the unsafe direction; a slow one
   only costs time. *)
let clock_drill () =
  let ops =
    [
      read_op ~at:5. ~client:1;
      write_op ~at:7. ~client:0;
      read_op ~at:12. ~client:1;
      read_op ~at:25. ~client:1;
    ]
  in
  let trace = Workload.Trace.of_ops ops in
  (* Wait-only writes isolate the clock dependence: with callbacks enabled
     the healthy holder would simply approve and hide the fault. *)
  let config = { Leases.Config.default with Leases.Config.callback_on_write = false } in
  let run step =
    let setup =
      {
        (Runner.lease_setup ~n_clients:2 ~config ~term:term_10 ()) with
        Leases.Sim.faults = [ Leases.Sim.Server_step { shard = 0; at = Time.of_sec 6.; step } ];
      }
    in
    Runner.run_lease setup trace
  in
  let fast = run (Time.Span.of_sec 5.) in
  let slow = run (Time.Span.of_sec (-5.)) in
  let ok =
    fast.Leases.Metrics.oracle_violations > 0 && slow.Leases.Metrics.oracle_violations = 0
  in
  {
    name = "clock fault";
    lines =
      [
        Printf.sprintf
          "server clock stepped +5 s (past epsilon): the server freed the file early and the \
           oracle caught %d stale read(s) — the unsafe direction the paper identifies"
          fast.Leases.Metrics.oracle_violations;
        Printf.sprintf
          "server clock stepped -5 s: no violations (%d stale reads); the write just waited \
           %.2f s instead of ~8 — failures of this polarity only cost performance"
          slow.Leases.Metrics.oracle_violations (mean_write_wait slow);
      ];
    ok;
  }

let run () =
  let scenarios =
    [
      client_crash ();
      server_crash_drill ();
      partition_drill ();
      blackout_drill ();
      clock_drill ();
    ]
  in
  let rows =
    List.map (fun s -> [ s.name; (if s.ok then "as predicted" else "UNEXPECTED") ]) scenarios
  in
  let table = Stats.Table.render ~header:[ "scenario"; "outcome" ] ~rows in
  { scenarios; table }
