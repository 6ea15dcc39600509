(* Sharded deployment: map determinism and balance, clean multi-shard
   runs, shard failover under the max-term rule, and per-shard telemetry
   with §3.1 residuals. *)

open Simtime

let span = Time.Span.of_sec
let file = Vstore.File_id.of_int

(* --- shard map ----------------------------------------------------- *)

let test_map_deterministic () =
  let a = Shard.Shard_map.create ~shards:4 () in
  let b = Shard.Shard_map.create ~shards:4 () in
  for i = 0 to 999 do
    Alcotest.(check int)
      (Printf.sprintf "owner of file %d" i)
      (Shard.Shard_map.owner a (file i))
      (Shard.Shard_map.owner b (file i))
  done;
  let c = Shard.Shard_map.create ~shards:4 ~seed:99L () in
  let moved = ref 0 in
  for i = 0 to 999 do
    if Shard.Shard_map.owner a (file i) <> Shard.Shard_map.owner c (file i) then incr moved
  done;
  Alcotest.(check bool) "different seed places differently" true (!moved > 0)

let test_map_balance () =
  let map = Shard.Shard_map.create ~shards:8 () in
  let files = List.init 10_000 file in
  let counts = Shard.Shard_map.spread map files in
  Alcotest.(check int) "total preserved" 10_000 (Array.fold_left ( + ) 0 counts);
  let ideal = 10_000. /. 8. in
  Array.iteri
    (fun s n ->
      let skew = Float.abs ((float_of_int n -. ideal) /. ideal) in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d within 50%% of ideal (%d files)" s n)
        true (skew < 0.5))
    counts

let test_map_stability_under_growth () =
  (* consistent hashing: going from 4 to 5 shards moves roughly 1/5 of the
     keys, not most of them *)
  let four = Shard.Shard_map.create ~shards:4 () in
  let five = Shard.Shard_map.create ~shards:5 () in
  let n = 10_000 in
  let moved = ref 0 in
  for i = 0 to n - 1 do
    let a = Shard.Shard_map.owner four (file i) in
    let b = Shard.Shard_map.owner five (file i) in
    if a <> b then begin
      incr moved;
      Alcotest.(check int) "moved keys land on the new shard" 4 b
    end
  done;
  let frac = float_of_int !moved /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "moved fraction %.3f near 1/5" frac)
    true
    (frac > 0.1 && frac < 0.35)

(* --- deployment ---------------------------------------------------- *)

let sharded_setup ?(n_clients = 6) ?(n_shards = 4) ?(faults = []) ?tracer ?on_instruments () =
  let base = Shard.Deploy.default_setup in
  {
    base with
    Shard.Deploy.n_clients;
    n_shards;
    faults;
    tracer = Option.value tracer ~default:base.Shard.Deploy.tracer;
    on_instruments = Option.value on_instruments ~default:base.Shard.Deploy.on_instruments;
  }

(* One sampler per world a run builds, attached through the setup's hook:
   [worlds] is 1 for [Deploy.run] and the shard count for [run_split],
   whose part [s] has one server, at host [s] (and may run on another
   domain). *)
let samplers ?latency ?detail ~worlds interval_s =
  let samplers =
    Array.init worlds (fun _ -> Telemetry.Sampler.create ~interval_s ?latency ?detail ())
  in
  let attach (w : Leases.Sim.world) tally =
    let world = Host.Host_id.to_int (Leases.Server.host w.Leases.Sim.servers.(0)) in
    Telemetry.Sampler.attach samplers.(world) w tally
  in
  (samplers, attach)

let v_trace ?(duration = 300.) ?(clients = 6) () =
  (Experiments.V_trace.poisson ~clients ~duration:(span duration) ()).Experiments.V_trace.trace

let test_sharded_run_clean () =
  let setup = sharded_setup () in
  let trace = v_trace () in
  let outcome = Shard.Deploy.run setup ~trace in
  let m = outcome.Shard.Deploy.metrics in
  Alcotest.(check int) "zero oracle violations" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "work happened" true (m.Leases.Metrics.reads_completed > 0);
  Alcotest.(check int) "nothing dropped" 0 m.Leases.Metrics.dropped_ops;
  (* every shard served consistency traffic, and the per-shard loads sum
     to the aggregate *)
  let sum =
    Array.fold_left
      (fun acc sl -> acc + sl.Shard.Deploy.sl_consistency_msgs)
      0 outcome.Shard.Deploy.per_shard
  in
  Alcotest.(check int) "per-shard loads sum to aggregate" m.Leases.Metrics.consistency_msgs sum;
  Array.iter
    (fun sl ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d handled traffic" sl.Shard.Deploy.sl_shard)
        true
        (sl.Shard.Deploy.sl_total_msgs > 0))
    outcome.Shard.Deploy.per_shard

let fault_exn spec =
  match Leases.Sim.fault_of_spec spec with
  | Ok fault -> fault
  | Error why -> Alcotest.failf "fault spec %S: %s" spec why

let encoded buf = List.map Trace.Codec.encode (Trace.Sink.buffer_contents buf)

(* Every field of a window, floats in hex so the line is exact. *)
let window_line (w : Telemetry.Sampler.window) =
  let ints l = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l) in
  let floats l = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) l) in
  let entities =
    String.concat ";"
      (List.map
         (fun (axis, moved) ->
           axis ^ ":"
           ^ String.concat "," (List.map (fun (e, d) -> Printf.sprintf "%d=%d" e d) moved))
         (Telemetry.Sampler.by_entity w))
  in
  let open Telemetry.Sampler in
  Printf.sprintf
    "i=%d t=%h..%h counters=[%s] deltas=[%s] reads=%d hits=%d misses=%d commits=%d ext=%d \
     app=%d inst=%d wt=%d rd=%h/%d wd=%h/%d lease=%d/%d/%d pending=%d queued=%d inflight=%d \
     cqueued=%d net=%d up=%b recovering=%b skews=[%s] entities=[%s] phases=[%s]"
    w.w_index w.t_start w.t_end (ints (counters w)) (ints (deltas w)) w.reads w.hits w.misses
    w.commits w.extension_msgs w.approval_msgs w.installed_msgs w.write_transfer_msgs
    w.read_delay_sum w.read_delay_count w.write_delay_sum w.write_delay_count w.lease_files
    w.lease_records w.lease_records_live w.pending_writes w.queued_writes w.client_inflight
    w.client_queued_ops w.in_flight_msgs w.server_up w.server_recovering (floats (skews w))
    entities (floats w.write_phase_sums)

let test_single_shard_matches_sim_load () =
  (* one shard lays client i out as host 1 + i and routes nothing, exactly
     as the single-server harness does, so the two must run the same
     simulation: same metrics, same event stream and the same telemetry
     windows, phase sums included, from samplers attached through the same
     hook, under loss and every kind of fault *)
  let trace = v_trace ~duration:200. () in
  let faults =
    List.map fault_exn
      [
        "crash-client=2,30,12";
        "partition=1+3,45,20";
        "server-drift=60,0.01";
        "client-step=4,70,-0.5";
        "client-drift=0,80,-0.02";
        "crash-server=100,6";
        "server-step=130,1.5";
      ]
  in
  let config =
    (Experiments.Runner.lease_setup ~term:(Analytic.Model.Finite 10.) ()).Leases.Sim.config
  in
  (* a buffer and a live critical-path analyzer behind one tracer, and a
     sampler reading the analyzer *)
  let instruments () =
    let buf = Trace.Sink.buffer () and analyzer = Trace.Critical_path.create () in
    let samplers, attach = samplers ~latency:analyzer ~detail:true ~worlds:1 7.5 in
    ( buf,
      Trace.Sink.tee [ Trace.Sink.buffer_sink buf; Trace.Critical_path.sink analyzer ],
      samplers.(0),
      attach )
  in
  let sim_buf, sim_tracer, sim_sampler, sim_attach = instruments () in
  let dep_buf, dep_tracer, dep_sampler, dep_attach = instruments () in
  let sim =
    Leases.Sim.run
      {
        Leases.Sim.default_setup with
        Leases.Sim.n_clients = 6;
        config;
        loss = 0.05;
        faults;
        tracer = sim_tracer;
        on_instruments = sim_attach;
      }
      ~trace
  in
  let sharded =
    Shard.Deploy.run
      {
        (sharded_setup ~n_shards:1 ~faults ~tracer:dep_tracer ~on_instruments:dep_attach ()) with
        Shard.Deploy.config;
        loss = 0.05;
      }
      ~trace
  in
  Telemetry.Sampler.finalize sim_sampler;
  Telemetry.Sampler.finalize dep_sampler;
  let m = sharded.Shard.Deploy.metrics in
  Alcotest.(check int) "zero violations" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check int) "one shard carries everything"
    m.Leases.Metrics.consistency_msgs
    sharded.Shard.Deploy.per_shard.(0).Shard.Deploy.sl_consistency_msgs;
  Alcotest.(check string) "same metrics as Sim.run"
    (Leases.Metrics.to_json sim.Leases.Sim.metrics)
    (Leases.Metrics.to_json m);
  Alcotest.(check bool) "faults fired" true (m.Leases.Metrics.net_dropped_down > 0);
  Alcotest.(check (list string)) "same event stream as Sim.run" (encoded sim_buf)
    (encoded dep_buf);
  Alcotest.(check bool) "phase sums sampled" true
    (List.exists
       (fun (w : Telemetry.Sampler.window) -> w.write_phase_sums <> [])
       (Telemetry.Sampler.windows dep_sampler));
  let windows sampler = List.map window_line (Telemetry.Sampler.windows sampler) in
  Alcotest.(check (list string)) "same telemetry windows as Sim.run" (windows sim_sampler)
    (windows dep_sampler)

(* [Deploy.run] installs [profilers.(0)] on its one engine, whatever the
   shard count; at one shard that engine dispatches what [Sim.run]'s
   does. *)
let test_run_profiles_its_engine () =
  let trace = v_trace ~duration:60. () in
  let recorder () = Profile.Recorder.create ~words:(fun () -> (0., 0.)) ~timer:(fun () -> 0.) () in
  let deploy n_shards =
    let r = recorder () in
    ignore (Shard.Deploy.run { (sharded_setup ~n_shards ()) with profilers = [| r |] } ~trace);
    Profile.Recorder.events_total r
  in
  let sim = recorder () in
  ignore
    (Leases.Sim.run
       { Leases.Sim.default_setup with Leases.Sim.n_clients = 6; profiler = sim }
       ~trace);
  Alcotest.(check bool) "Sim.run recorded its engine" true (Profile.Recorder.events_total sim > 0);
  Alcotest.(check int) "one shard records Sim.run's dispatches"
    (Profile.Recorder.events_total sim) (deploy 1);
  Alcotest.(check bool) "four shards record their engine" true (deploy 4 > 0)

let test_shard_failover () =
  (* crash one shard's server mid-run: its files stall through the crash
     and the max-term recovery wait, the other shards keep serving, and no
     stale read ever completes (oracle + trace checker agree) *)
  let buf = Trace.Sink.buffer () in
  let faults =
    [ Leases.Sim.Crash_shard { shard = 1; at = Time.of_sec 100.; duration = span 10. } ]
  in
  let setup =
    sharded_setup ~faults ~tracer:(Trace.Sink.buffer_sink buf) ()
  in
  let trace = v_trace ~duration:400. () in
  let outcome = Shard.Deploy.run setup ~trace in
  let m = outcome.Shard.Deploy.metrics in
  Alcotest.(check int) "zero oracle violations" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "reads completed" true (m.Leases.Metrics.reads_completed > 0);
  let report =
    Trace.Checker.check
      ~servers:(Shard.Deploy.server_hosts setup)
      ~owner:(fun f -> Shard.Shard_map.owner outcome.Shard.Deploy.map (Vstore.File_id.of_int f))
      (Trace.Sink.buffer_contents buf)
  in
  Alcotest.(check int) "checker: no violations"
    0
    (List.length report.Trace.Checker.violations);
  Alcotest.(check bool) "checker saw hits" true (report.Trace.Checker.checked_hits > 0)

(* The campaign checks sharded schedules live: a checker built before the
   run from [Deploy.shard_map] and fed from the run's tracer must report
   exactly what a replay of the same stream reports, through a shard
   crash. *)
let test_live_checker_equals_replay () =
  let faults =
    [ Leases.Sim.Crash_shard { shard = 1; at = Time.of_sec 100.; duration = span 10. } ]
  in
  let setup = sharded_setup ~faults () in
  let map = Shard.Deploy.shard_map setup in
  let owner f = Shard.Shard_map.owner map (Vstore.File_id.of_int f) in
  let servers = Shard.Deploy.server_hosts setup in
  let live = Trace.Checker.create ~servers ~owner () in
  let buf = Trace.Sink.buffer () in
  let setup =
    { setup with
      Shard.Deploy.tracer = Trace.Sink.tee [ Trace.Checker.sink live; Trace.Sink.buffer_sink buf ] }
  in
  let outcome = Shard.Deploy.run setup ~trace:(v_trace ~duration:400. ()) in
  for f = 0 to 999 do
    Alcotest.(check int) "the run placed files by Deploy.shard_map" (owner f)
      (Shard.Shard_map.owner outcome.Shard.Deploy.map (file f))
  done;
  let events = Trace.Sink.buffer_contents buf in
  Alcotest.(check bool) "the shard crashed" true
    (List.exists
       (fun (e : Trace.Event.t) ->
         match e.Trace.Event.ev with Trace.Event.Crash { host = 1 } -> true | _ -> false)
       events);
  let replay = Trace.Checker.check ~servers ~owner events in
  Alcotest.check
    (Alcotest.testable Trace.Checker.pp_report ( = ))
    "live report = replayed report" replay (Trace.Checker.report live);
  Alcotest.(check bool) "checker saw hits and commits" true
    (replay.Trace.Checker.checked_hits > 0 && replay.Trace.Checker.checked_commits > 0)

let test_failover_other_shards_keep_serving () =
  (* during the outage window, commits still happen on the surviving
     shards *)
  let faults =
    [ Leases.Sim.Crash_shard { shard = 0; at = Time.of_sec 50.; duration = span 200. } ]
  in
  let samplers, on_instruments = samplers ~worlds:1 10. in
  let sampler = samplers.(0) in
  let setup = sharded_setup ~faults ~on_instruments () in
  let trace = v_trace ~duration:300. () in
  let outcome = Shard.Deploy.run setup ~trace in
  Telemetry.Sampler.finalize sampler;
  (* shard 0's windows show the outage (server down), the others never
     go down *)
  let down_windows server =
    List.length
      (List.filter
         (fun (w : Telemetry.Sampler.window) -> not w.Telemetry.Sampler.server_up)
         (Telemetry.Sampler.windows ~server sampler))
  in
  Alcotest.(check bool) "crashed shard shows down windows" true (down_windows 0 > 0);
  for s = 1 to 3 do
    Alcotest.(check int) (Printf.sprintf "shard %d stayed up" s) 0 (down_windows s)
  done;
  Alcotest.(check int) "zero oracle violations" 0
    outcome.Shard.Deploy.metrics.Leases.Metrics.oracle_violations;
  (* surviving shards committed during the outage: compare their commits
     against a run where shard 0 never crashes — they are within noise *)
  Array.iteri
    (fun s sl ->
      if s <> 0 then
        Alcotest.(check bool)
          (Printf.sprintf "shard %d committed" s)
          true
          (sl.Shard.Deploy.sl_commits > 0))
    outcome.Shard.Deploy.per_shard

let test_per_shard_residuals () =
  let samplers, on_instruments = samplers ~worlds:1 30. in
  let setup = sharded_setup ~on_instruments () in
  let trace = v_trace ~duration:600. () in
  ignore (Shard.Deploy.run setup ~trace);
  Telemetry.Sampler.finalize samplers.(0);
  let params =
    Telemetry.Residual.params_of_config ~n_clients:setup.n_clients ~m_prop:setup.m_prop
      ~m_proc:setup.m_proc setup.config
  in
  let reports = Telemetry.Residual.summaries params samplers.(0) in
  Alcotest.(check int) "one report per shard" 4 (Array.length reports);
  Array.iteri
    (fun shard (summary : Telemetry.Residual.summary) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d has windows" shard)
        true (summary.windows > 0);
      Alcotest.(check bool)
        (Printf.sprintf "shard %d residual is finite" shard)
        true
        (Float.is_finite summary.steady_load_residual))
    reports

(* --- sequential goldens -------------------------------------------- *)

(* The exact metrics documents two seeded CLI runs produced before the
   split-deployment refactor landed (committed as
   golden_shard_seq_*.json).  The shared-engine path must keep producing
   them byte for byte: any drift means the refactor changed the
   sequential simulation, not just reorganised it. *)

let read_file path =
  (* dune runtest runs in the test directory; a `dune exec` from the repo
     root finds the goldens one level down *)
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Mirrors bin/simulate.ml's sharded setup for `-p leases -t 10` at the
   default 5 ms RTT: propagation (5 - 4) / 2 ms, processing 1 ms. *)
let cli_setup ~seed ~faults () =
  let m_proc = Time.Span.of_ms 1. in
  let m_prop = Time.Span.of_ms 0.5 in
  let base =
    Experiments.Runner.lease_setup ~n_clients:6 ~m_prop ~m_proc ~term:(Analytic.Model.Finite 10.)
      ()
  in
  {
    Shard.Deploy.default_setup with
    Shard.Deploy.seed;
    n_clients = 6;
    n_shards = 4;
    config = base.Leases.Sim.config;
    m_prop;
    m_proc;
    faults;
  }

let cli_trace ~seed ~duration =
  (Experiments.V_trace.poisson ~seed ~clients:6 ~duration:(span duration) ())
    .Experiments.V_trace.trace

let test_golden_sequential_clean () =
  let outcome =
    Shard.Deploy.run (cli_setup ~seed:1L ~faults:[] ()) ~trace:(cli_trace ~seed:1L ~duration:300.)
  in
  Alcotest.(check string)
    "clean 4-shard run matches the pre-refactor golden"
    (String.trim (read_file "golden_shard_seq_clean.json"))
    (Leases.Metrics.to_json outcome.Shard.Deploy.metrics)

let test_golden_sequential_faults () =
  let faults =
    List.map fault_exn [ "crash-shard=1,40,8"; "server-drift=60,0.5"; "server-step=80,-2" ]
  in
  let outcome =
    Shard.Deploy.run (cli_setup ~seed:3L ~faults ()) ~trace:(cli_trace ~seed:3L ~duration:120.)
  in
  Alcotest.(check string)
    "faulted 4-shard run matches the pre-refactor golden"
    (String.trim (read_file "golden_shard_seq_faults.json"))
    (Leases.Metrics.to_json outcome.Shard.Deploy.metrics)

(* Trace goldens for the same faulted setup: the metrics goldens cannot
   see a change in event order, these can.  Each pins the event count and
   the MD5 of the encoded stream without its [heartbeat] lines: a
   heartbeat samples the engine's queue depth, which depends on how much
   not-yet-due work the harness keeps queued, not on what the protocol
   does.  Both pins were computed before the run functions shared one
   harness. *)
let golden_faults () =
  List.map fault_exn [ "crash-shard=1,40,8"; "server-drift=60,0.5"; "server-step=80,-2" ]

let stream_pin buf =
  let events = Trace.Sink.buffer_contents buf in
  let out = Buffer.create (1 lsl 20) in
  List.iter
    (fun (e : Trace.Event.t) ->
      match e.Trace.Event.ev with
      | Trace.Event.Heartbeat _ -> ()
      | _ ->
        Buffer.add_string out (Trace.Codec.encode e);
        Buffer.add_char out '\n')
    events;
  (List.length events, Digest.to_hex (Digest.string (Buffer.contents out)))

let traced_golden_setup buf =
  { (cli_setup ~seed:3L ~faults:(golden_faults ()) ()) with
    Shard.Deploy.tracer = Trace.Sink.buffer_sink buf }

let test_golden_trace_faults () =
  let buf = Trace.Sink.buffer () in
  ignore (Shard.Deploy.run (traced_golden_setup buf) ~trace:(cli_trace ~seed:3L ~duration:120.));
  let count, digest = stream_pin buf in
  Alcotest.(check int) "event count" 8877 count;
  Alcotest.(check string) "stream digest, heartbeats dropped" "bfc2d10f2ef4019d211fb91ed3745da5"
    digest

let test_golden_trace_split_faults () =
  let buf = Trace.Sink.buffer () in
  ignore
    (Shard.Deploy.run_split ~domains:1 (traced_golden_setup buf)
       ~trace:(cli_trace ~seed:3L ~duration:120.));
  let count, digest = stream_pin buf in
  Alcotest.(check int) "event count" 9068 count;
  Alcotest.(check string) "stream digest, heartbeats dropped" "f71f4c9b7c3ad402d7659ec7bb207dc6"
    digest

(* --- split deployment ---------------------------------------------- *)

(* One seeded split run's complete observable output: metrics JSON,
   per-shard loads, per-shard telemetry windows, and the merged trace
   (encoded lines, in stream order). *)
let split_observables ~domains ~faults ~duration () =
  let buf = Trace.Sink.buffer () in
  let samplers, on_instruments = samplers ~detail:true ~worlds:4 10. in
  let setup = sharded_setup ~faults ~tracer:(Trace.Sink.buffer_sink buf) ~on_instruments () in
  let trace = v_trace ~duration () in
  let outcome = Shard.Deploy.run_split ~domains setup ~trace in
  Array.iter Telemetry.Sampler.finalize samplers;
  let windows = Array.to_list (Array.map Telemetry.Sampler.windows samplers) in
  ( Leases.Metrics.to_json outcome.Shard.Deploy.sp_metrics,
    outcome.Shard.Deploy.sp_per_shard,
    windows,
    List.map Trace.Codec.encode (Trace.Sink.buffer_contents buf) )

let split_faults () =
  [
    Leases.Sim.Crash_shard { shard = 1; at = Time.of_sec 60.; duration = span 8. };
    fault_exn "server-drift=2,80,0.5";
    fault_exn "crash-client=3,50,15";
  ]

(* The faulted 4-shard run's per-shard windows, with a live critical-path
   analyzer feeding each shard's phase sums.  The digest was recorded with
   the dedicated shard collector [Telemetry.Sampler] replaced, so it holds
   the K-server read-count rule and window shape to that collector's. *)
let test_golden_shard_windows () =
  let analyzer = Trace.Critical_path.create () in
  let samplers, on_instruments = samplers ~latency:analyzer ~worlds:1 10. in
  let setup =
    sharded_setup ~faults:(split_faults ()) ~tracer:(Trace.Critical_path.sink analyzer)
      ~on_instruments ()
  in
  ignore (Shard.Deploy.run setup ~trace:(v_trace ~duration:200. ()));
  Telemetry.Sampler.finalize samplers.(0);
  (* every window of every shard, shard by shard *)
  let windows = Telemetry.Sampler.windows samplers.(0) in
  Alcotest.(check bool) "phase sums sampled" true
    (List.exists (fun (w : Telemetry.Sampler.window) -> w.write_phase_sums <> []) windows);
  let lines = List.map window_line windows in
  Alcotest.(check int) "windows" 128 (List.length lines);
  Alcotest.(check string) "every field of every window, MD5" "a20cdf15c8bd76d148bdda7ce8557c24"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_split_domains_equivalent () =
  (* the tentpole's correctness spine: the same seeded split deployment —
     faults, loss-free network, telemetry, tracing — produces identical
     metrics, loads, windows and merged trace whether its four parts run
     on one domain or four *)
  let m1, l1, w1, t1 = split_observables ~domains:1 ~faults:(split_faults ()) ~duration:200. () in
  let m4, l4, w4, t4 = split_observables ~domains:4 ~faults:(split_faults ()) ~duration:200. () in
  Alcotest.(check string) "metrics identical across domain counts" m1 m4;
  Alcotest.(check bool) "per-shard loads identical" true (l1 = l4);
  Alcotest.(check bool) "telemetry windows identical" true (w1 = w4);
  (* each part is a one-server world, so its windows are full ones *)
  List.iteri
    (fun shard windows ->
      Alcotest.(check bool)
        (Printf.sprintf "part %d's windows carry skews and counters" shard)
        true
        (windows <> []
        && List.for_all
             (fun w -> Telemetry.Sampler.(skews w <> [] && counters w <> []))
             windows))
    w1;
  Alcotest.(check bool) "the drifted shard's server clock shows skew" true
    (List.exists
       (fun w -> Float.abs (List.assoc "server" (Telemetry.Sampler.skews w)) > 1.)
       (List.nth w1 2));
  Alcotest.(check bool) "traces non-empty" true (t1 <> []);
  Alcotest.(check (list string)) "merged traces identical" t1 t4

let test_split_failover_checker_parallel () =
  (* the 4-shard failover campaign replayed on 4 domains: the merged
     trace must satisfy the multi-server invariant checker exactly as the
     sequential run does *)
  let buf = Trace.Sink.buffer () in
  let faults =
    [ Leases.Sim.Crash_shard { shard = 1; at = Time.of_sec 100.; duration = span 10. } ]
  in
  let setup = sharded_setup ~faults ~tracer:(Trace.Sink.buffer_sink buf) () in
  let trace = v_trace ~duration:400. () in
  let outcome = Shard.Deploy.run_split ~domains:4 setup ~trace in
  Alcotest.(check int) "zero oracle violations" 0
    outcome.Shard.Deploy.sp_metrics.Leases.Metrics.oracle_violations;
  let report =
    Trace.Checker.check
      ~servers:(Shard.Deploy.server_hosts setup)
      ~owner:(fun f ->
        Shard.Shard_map.owner outcome.Shard.Deploy.sp_map (Vstore.File_id.of_int f))
      (Trace.Sink.buffer_contents buf)
  in
  Alcotest.(check int) "checker: no violations" 0 (List.length report.Trace.Checker.violations);
  Alcotest.(check bool) "checker saw hits" true (report.Trace.Checker.checked_hits > 0)

let test_split_merged_trace_ordered () =
  (* the merged stream is globally time-ordered — what the (timestamp,
     shard) merge promises downstream consumers *)
  let _, _, _, lines = split_observables ~domains:4 ~faults:[] ~duration:120. () in
  Alcotest.(check bool) "trace non-empty" true (lines <> []);
  let buf = Trace.Sink.buffer () in
  let setup = sharded_setup ~tracer:(Trace.Sink.buffer_sink buf) () in
  let _ = Shard.Deploy.run_split ~domains:4 setup ~trace:(v_trace ~duration:120. ()) in
  let rec ordered = function
    | (a : Trace.Event.t) :: (b :: _ as rest) -> a.Trace.Event.at <= b.Trace.Event.at && ordered rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "timestamps non-decreasing" true
    (ordered (Trace.Sink.buffer_contents buf))

let test_deploy_deterministic () =
  let trace = v_trace ~duration:120. () in
  let run () =
    let outcome = Shard.Deploy.run (sharded_setup ()) ~trace in
    Leases.Metrics.to_json outcome.Shard.Deploy.metrics
  in
  Alcotest.(check string) "same seed, same metrics" (run ()) (run ())

let () =
  Alcotest.run "shard"
    [
      ( "map",
        [
          Alcotest.test_case "deterministic" `Quick test_map_deterministic;
          Alcotest.test_case "balanced" `Quick test_map_balance;
          Alcotest.test_case "stable under growth" `Quick test_map_stability_under_growth;
        ] );
      ( "deploy",
        [
          Alcotest.test_case "clean sharded run" `Quick test_sharded_run_clean;
          Alcotest.test_case "single shard degenerates" `Quick test_single_shard_matches_sim_load;
          Alcotest.test_case "run profiles its engine" `Quick test_run_profiles_its_engine;
          Alcotest.test_case "deterministic" `Quick test_deploy_deterministic;
          Alcotest.test_case "golden: clean run unchanged" `Quick test_golden_sequential_clean;
          Alcotest.test_case "golden: faulted run unchanged" `Quick test_golden_sequential_faults;
          Alcotest.test_case "golden: faulted trace unchanged" `Quick test_golden_trace_faults;
          Alcotest.test_case "golden: faulted split trace unchanged" `Quick
            test_golden_trace_split_faults;
        ] );
      ( "split",
        [
          Alcotest.test_case "domains 1 = domains 4" `Quick test_split_domains_equivalent;
          Alcotest.test_case "failover checked on 4 domains" `Quick
            test_split_failover_checker_parallel;
          Alcotest.test_case "merged trace time-ordered" `Quick test_split_merged_trace_ordered;
        ] );
      ( "failover",
        [
          Alcotest.test_case "zero stale reads through crash" `Quick test_shard_failover;
          Alcotest.test_case "others keep serving" `Quick test_failover_other_shards_keep_serving;
          Alcotest.test_case "live checker = replay" `Quick test_live_checker_equals_replay;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "per-shard residuals" `Quick test_per_shard_residuals;
          Alcotest.test_case "golden: faulted per-shard windows" `Quick test_golden_shard_windows;
        ] );
    ]
