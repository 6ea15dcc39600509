(* Run one configurable simulation and print the full metric summary. *)

open Cmdliner

(* The message model charges one processing delay at each host a message
   crosses, so a unicast RPC pays 2 propagation + 4 processing legs; with
   the fixed 1 ms processing delay the floor is 4 ms of RTT. *)
let m_prop_of_rtt rtt_ms =
  if Float.is_nan rtt_ms || rtt_ms < 4. then
    failwith
      (Printf.sprintf
         "--rtt %g is below the 4 ms floor: RTT = 2 propagation + 4 processing legs and each \
          processing leg is fixed at 1 ms, so propagation would be negative"
         rtt_ms)
  else Simtime.Time.Span.of_ms (Float.max 0. ((rtt_ms -. 4.) /. 2.))

(* --fault specs: kind=args with comma-separated numbers, e.g.
   crash-client=1,30,20 (client 1 down at t=30 for 20 s) or
   server-drift=40,1.0 (server clock runs 2x from t=40).  The grammar
   lives in [Leases.Sim] so campaign reproducers stay parseable here. *)
let parse_fault spec =
  match Leases.Sim.fault_of_spec spec with Ok fault -> fault | Error why -> failwith why

(* A Chrome export ends leases and draws waits by server, so it takes the
   run's server hosts and shard map, the ones [Deploy] places files with
   (every baseline and one-shard run has its one server at host 0). *)
let trace_sink ~seed ~shards trace_out trace_format =
  match trace_out with
  | None -> (Trace.Sink.null, fun () -> ())
  | Some path -> (
    match trace_format with
    | "jsonl" ->
      let oc = open_out path in
      (Trace.Sink.jsonl oc, fun () -> close_out oc)
    | "chrome" ->
      let setup = { Shard.Deploy.default_setup with Shard.Deploy.seed; n_shards = shards } in
      let map = Shard.Deploy.shard_map setup in
      let chrome =
        Trace.Chrome.create
          ~servers:(Shard.Deploy.server_hosts setup)
          ~owner:(fun f -> Shard.Shard_map.owner map (Vstore.File_id.of_int f))
          ()
      in
      ( Trace.Chrome.sink chrome,
        fun () ->
          let oc = open_out path in
          Trace.Chrome.output chrome oc;
          close_out oc )
    | other -> failwith (Printf.sprintf "unknown trace format %S (jsonl|chrome)" other))

let write_file path data =
  let oc = open_out path in
  output_string oc data;
  close_out oc

(* --latency tees a live critical-path analyzer next to the tracer; the
   report is rendered (and optionally exported) after the run drains so
   still-open operations are counted as incomplete, not lost. *)
let finish_latency analyzer ~latency_out ~latency_k ~json =
  let report = Trace.Critical_path.report ~k:latency_k analyzer in
  Option.iter (fun path -> write_file path (Trace.Critical_path.export report)) latency_out;
  if not json then Format.printf "%a@." Trace.Critical_path.pp_report report

(* --telemetry: the report of a one-server run, written after the run
   drains so the final partial window is included, or the per-shard
   residual summaries of a sharded one. *)
let finish_telemetry samplers ~params ~shards ~telemetry_out ~telemetry_format ~json =
  Option.iter
    (fun path ->
      write_file path
        (match telemetry_format with
        | "json" -> Telemetry.Report.to_json_string ~params samplers.(0)
        | "csv" -> Telemetry.Report.to_csv_string ~params samplers.(0)
        | other -> failwith (Printf.sprintf "unknown telemetry format %S (json|csv)" other)))
    telemetry_out;
  if not json then begin
    (* a split run's parts each sample their own shard: the summaries
       concatenate in shard order *)
    let summaries =
      Array.concat (List.map (Telemetry.Residual.summaries params) (Array.to_list samplers))
    in
    if shards = 1 then
      let s = summaries.(0) in
      Format.printf
        "telemetry: %d windows (%d flagged), consistency load %.3f msg/s measured vs %.3f \
         predicted, steady residual %+.1f%%@."
        s.windows s.flagged_windows s.mean_measured_load s.mean_predicted_load
        (100. *. s.steady_load_residual)
    else
      Array.iteri
        (fun shard (s : Telemetry.Residual.summary) ->
          Format.printf
            "shard %d telemetry: %d windows (%d flagged), load %.3f msg/s measured vs %.3f \
             predicted, steady residual %+.1f%%@."
            shard s.windows s.flagged_windows s.mean_measured_load s.mean_predicted_load
            (100. *. s.steady_load_residual))
        summaries
  end

(* --profile: the run's one engine gets one recorder, or each split part's
   its own, reported as one leases-profile/1 document per shard wrapped in
   a leases-profile-shards/1 envelope keyed by shard index.  The hotspot
   tables go to stdout unless --json asked for machine-readable output
   only. *)
let finish_profile profilers ~split ~profile_out ~json =
  let reports = Array.map Profile.Report.of_recorder profilers in
  Option.iter
    (fun path ->
      write_file path
        (if split then
           let sections =
             Array.to_list
               (Array.mapi
                  (fun s r ->
                    Printf.sprintf "%S:%s" (string_of_int s) (Profile.Report.to_json_string r))
                  reports)
           in
           Printf.sprintf "{\"schema\":\"leases-profile-shards/1\",\"shards\":{%s}}"
             (String.concat "," sections)
         else Profile.Report.to_json_string reports.(0)))
    profile_out;
  if not json then
    Array.iteri
      (fun s r ->
        if split then Format.printf "shard %d profile:@." s;
        print_string (Profile.Report.hotspot_table r))
      reports

let print_shard_loads per_shard =
  Array.iter
    (fun sl ->
      Format.printf
        "shard %d (host %d): consistency %d msgs (%.3f/s) = ext %d + appr %d + inst %d; \
         total handled %d, commits %d@."
        sl.Shard.Deploy.sl_shard sl.Shard.Deploy.sl_host sl.Shard.Deploy.sl_consistency_msgs
        sl.Shard.Deploy.sl_consistency_rate sl.Shard.Deploy.sl_extension_msgs
        sl.Shard.Deploy.sl_approval_msgs sl.Shard.Deploy.sl_installed_msgs
        sl.Shard.Deploy.sl_total_msgs sl.Shard.Deploy.sl_commits)
    per_shard

(* The lease protocol (-p polling is its zero term) on --shards N servers:
   one shared-fabric world, or with --domains one sub-simulation per shard.
   Samplers and recorders attach per world: part [s]'s one server is host
   [s], the shared world's first is host 0.  Per-shard loads follow the
   aggregate metrics when there are several shards. *)
let run_leases ~term ~shards ~domains ~clients ~seed ~loss ~m_prop ~m_proc ~faults ~tracer
    ~telemetry_s ~telemetry_out ~telemetry_format ~analyzer ~json ~trace ~profile ~profile_out =
  let config = (Experiments.Runner.lease_setup ~term ()).Leases.Sim.config in
  let split = domains <> None in
  let worlds = if split then shards else 1 in
  (* a split part cannot poll the analyzer: it is fed the merged stream
     after the parts join *)
  let latency = if split then None else analyzer in
  (* only the --telemetry-out report reads a window's counters, skews and
     per-entity breakdown *)
  let detail = Option.is_some telemetry_out in
  let samplers =
    Option.map
      (fun interval_s ->
        Array.init worlds (fun _ -> Telemetry.Sampler.create ~interval_s ?latency ~detail ()))
      telemetry_s
  in
  let profilers =
    if profile then
      (* engine-health samples share the telemetry cadence when one was
         asked for, 10 s otherwise *)
      let interval_s = Option.value telemetry_s ~default:10. in
      Array.init worlds (fun _ -> Profile.Recorder.create ~interval_s ~timer:Unix.gettimeofday ())
    else [||]
  in
  let on_instruments (w : Leases.Sim.world) tally =
    Option.iter
      (fun samplers ->
        let world = Host.Host_id.to_int (Leases.Server.host w.servers.(0)) in
        Telemetry.Sampler.attach samplers.(world) w tally)
      samplers
  in
  let setup =
    {
      Shard.Deploy.default_setup with
      Shard.Deploy.seed;
      n_clients = clients;
      n_shards = shards;
      config;
      m_prop;
      m_proc;
      loss;
      faults;
      tracer;
      on_instruments;
      profilers;
    }
  in
  let metrics, per_shard =
    match domains with
    | None ->
      let o = Shard.Deploy.run setup ~trace in
      (o.Shard.Deploy.metrics, o.Shard.Deploy.per_shard)
    | Some domains ->
      let o = Shard.Deploy.run_split ~domains setup ~trace in
      (o.Shard.Deploy.sp_metrics, o.Shard.Deploy.sp_per_shard)
  in
  Option.iter (Array.iter Telemetry.Sampler.finalize) samplers;
  let print_extra () =
    if shards > 1 && not json then print_shard_loads per_shard;
    Option.iter
      (fun samplers ->
        let params =
          Telemetry.Residual.params_of_config ~n_clients:clients ~m_prop ~m_proc config
        in
        finish_telemetry samplers ~params ~shards ~telemetry_out ~telemetry_format ~json)
      samplers;
    if profile then finish_profile profilers ~split ~profile_out ~json
  in
  (metrics, print_extra)

(* The Section 6 baselines: one server, no instruments, on a lease run's
   setup.  The TTL is the config's term; callbacks read no term. *)
let run_baseline ~protocol ~term_s ~clients ~seed ~loss ~m_prop ~m_proc ~faults ~tracer ~trace =
  let setup config =
    { Leases.Sim.default_setup with
      Leases.Sim.seed; n_clients = clients; config; m_prop; m_proc; loss; faults; tracer }
  in
  match protocol with
  | "callback" -> (Baselines.Callback.run (setup Leases.Config.default) ~trace).Leases.Sim.metrics
  | "ttl" ->
    if term_s < 0. then
      failwith
        (Printf.sprintf
           "--term %g: a TTL hint is not a promise and never lasts forever; give a TTL of 0 s or \
            more"
           term_s);
    let config = Leases.Config.with_term Leases.Config.default (Leases.Lease.term_of_sec term_s) in
    (Baselines.Ttl_hints.run (setup config) ~trace).Leases.Sim.metrics
  | other -> failwith (Printf.sprintf "unknown protocol %S (leases|polling|callback|ttl)" other)

let main protocol term_s clients duration seed loss rtt_ms workload ops_file json trace_out
    trace_format fault_specs telemetry_s telemetry_out telemetry_format shards domains profile
    profile_out latency latency_out latency_k =
  try
    let faults = List.map parse_fault fault_specs in
    (* check-on-use is exactly a lease of term zero *)
    let lease_term =
      match protocol with
      | "leases" ->
        Some (if term_s < 0. then Analytic.Model.Infinite else Analytic.Model.Finite term_s)
      | "polling" -> Some (Analytic.Model.Finite 0.)
      | _ -> None
    in
    if shards < 1 then failwith "--shards must be at least 1";
    if not (loss >= 0. && loss <= 1.) then
      failwith (Printf.sprintf "--loss %g: the drop probability must be in [0, 1]" loss);
    (match domains with
    | Some d when d < 1 -> failwith "--domains must be at least 1"
    | Some _ when shards < 2 ->
      failwith "--domains runs each shard as its own sub-simulation; it needs --shards at least 2"
    | _ -> ());
    if latency_out <> None && not latency then failwith "--latency-out requires --latency";
    if latency_k < 1 then failwith "--latency-k must be at least 1";
    if profile_out <> None && not profile then failwith "--profile-out requires --profile";
    (* the baselines build no lease deployment to shard or instrument *)
    (if lease_term = None then
       match
         List.find_opt snd
           [
             ("--shards", shards > 1);
             ("--telemetry", telemetry_s <> None);
             ("--latency", latency);
             ("--profile", profile);
           ]
       with
       | Some (flag, _) ->
         failwith
           (Printf.sprintf "%s runs the lease deployment; it needs --protocol leases or polling, \
                            not %S"
              flag protocol)
       | None -> ());
    if shards > 1 && telemetry_out <> None then
      failwith
        "--telemetry-out writes a single-server report; with --shards use the printed per-shard \
         summaries";
    if telemetry_out <> None && telemetry_s = None then
      failwith "--telemetry-out requires --telemetry INTERVAL";
    (match telemetry_s with
    | Some i when not (i >= Simtime.Time.(to_sec (of_us 1))) ->
      failwith
        (Printf.sprintf
           "--telemetry %g: the interval must be at least the engine's 1 us tick, the grid that \
            window boundaries land on"
           i)
    | _ -> ());
    let trace =
      match ops_file with
      | Some path -> (
        match In_channel.with_open_text path Workload.Trace_io.read with
        | Ok trace -> trace
        | Error why -> failwith (Printf.sprintf "--ops %s: %s" path why))
      | None ->
        Experiments.V_trace.generate
          (Experiments.V_trace.kind_of_name workload)
          ~seed ~clients ~duration:(Simtime.Time.Span.of_sec duration)
    in
    let m_proc = Simtime.Time.Span.of_ms 1. in
    let m_prop = m_prop_of_rtt rtt_ms in
    let tracer, finish_trace = trace_sink ~seed ~shards trace_out trace_format in
    let analyzer =
      if latency then Some (Trace.Critical_path.create ~worst:latency_k ()) else None
    in
    let tracer =
      match analyzer with
      | None -> tracer
      | Some a -> Trace.Sink.tee [ tracer; Trace.Critical_path.sink a ]
    in
    let metrics, print_extra =
      match lease_term with
      | Some term ->
        run_leases ~term ~shards ~domains ~clients ~seed ~loss ~m_prop ~m_proc ~faults ~tracer
          ~telemetry_s ~telemetry_out ~telemetry_format ~analyzer ~json ~trace ~profile
          ~profile_out
      | None ->
        ( run_baseline ~protocol ~term_s ~clients ~seed ~loss ~m_prop ~m_proc ~faults ~tracer
            ~trace,
          ignore )
    in
    finish_trace ();
    if json then print_endline (Leases.Metrics.to_json metrics)
    else Format.printf "%a@." Leases.Metrics.pp metrics;
    print_extra ();
    Option.iter (fun a -> finish_latency a ~latency_out ~latency_k ~json) analyzer;
    `Ok ()
  with Failure why | Sys_error why | Invalid_argument why -> `Error (false, why)

let protocol =
  Arg.(value & opt string "leases"
       & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:"leases, polling, callback or ttl.")

let term =
  Arg.(value & opt float 10.
       & info [ "t"; "term" ] ~docv:"SEC"
           ~doc:"Lease term (or TTL) in seconds; a negative lease term is infinite, a negative \
                 TTL an error.")

let clients =
  Arg.(value & opt int 1 & info [ "n"; "clients" ] ~docv:"N" ~doc:"Number of client caches.")

let duration =
  Arg.(value & opt float 600. & info [ "d"; "duration" ] ~docv:"SEC" ~doc:"Virtual seconds of workload.")

let seed = Arg.(value & opt int64 1L & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let loss =
  Arg.(value & opt float 0.
       & info [ "loss" ] ~docv:"P" ~doc:"Per-delivery message loss probability, in [0, 1].")

let rtt =
  Arg.(value & opt float 5.
       & info [ "rtt" ] ~docv:"MS"
           ~doc:"Unicast round-trip time in milliseconds; must be at least 4 (the fixed \
                 processing legs).")

let workload =
  Arg.(value & opt string "poisson"
       & info [ "w"; "workload" ] ~docv:"KIND" ~doc:"poisson, bursty or shared-heavy.")

let ops_file =
  Arg.(value & opt (some string) None
       & info [ "ops" ] ~docv:"FILE"
           ~doc:
             "Drive the run from a workload trace file (see leases-tracegen).  A line naming a \
              client at or above 2^30 or a file at or above 2^26 is refused.")

let json =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Print metrics as one machine-readable JSON object instead of the \
                               human summary.")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the structured protocol event trace to $(docv) (see leases-tracedump).")

let trace_format =
  Arg.(value & opt string "jsonl"
       & info [ "trace-format" ] ~docv:"FMT"
           ~doc:"Event trace format: jsonl (one event per line, tracedump input) or chrome \
                 (chrome://tracing / Perfetto timeline).")

let faults =
  Arg.(value & opt_all string []
       & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Inject a fault (repeatable): crash-client=CLIENT,AT,DUR; crash-server=AT,DUR; \
                 partition=C1+C2,AT,DUR; client-drift=CLIENT,AT,RATE; \
                 server-drift=[SHARD,]AT,RATE; client-step=CLIENT,AT,SEC; \
                 server-step=[SHARD,]AT,SEC.  Times in virtual seconds; the server clock \
                 faults default to shard 0 when no shard is given.")

let telemetry =
  Arg.(value & opt (some float) None
       & info [ "telemetry" ] ~docv:"SEC"
           ~doc:"Sample telemetry every $(docv) virtual seconds (leases or polling): counter \
                 registries, lease-table occupancy, write queues, in-flight messages, clock \
                 skew, and live analytic-model residuals per window.  $(docv) is at least \
                 1e-6, the engine's 1 us tick.")

let telemetry_out =
  Arg.(value & opt (some string) None
       & info [ "telemetry-out" ] ~docv:"FILE"
           ~doc:"Write the telemetry report to $(docv) (see leases-telemetry); requires \
                 --telemetry.")

let telemetry_format =
  Arg.(value & opt string "json"
       & info [ "telemetry-format" ] ~docv:"FMT"
           ~doc:"Telemetry report format: json (full report, leases-telemetry input) or csv \
                 (per-window scalars).")

let shards =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"N"
           ~doc:"Partition the file namespace across $(docv) independent lease servers \
                 (consistent hashing; servers are hosts 0..N-1) and route every client \
                 operation to the owning shard.  Leases or polling.  Adds crash-shard=\
                 SHARD,AT,DUR to the --fault vocabulary and prints per-shard load lines \
                 after the aggregate metrics.")

let domains =
  Arg.(value & opt (some int) None
       & info [ "domains" ] ~docv:"K"
           ~doc:"With --shards: run each shard as a self-contained sub-simulation, up to \
                 $(docv) of them concurrently on OCaml domains, and merge the results \
                 deterministically (metrics summed, histograms merged, traces interleaved by \
                 timestamp).  --domains 1 runs the same sub-simulations sequentially and \
                 produces bit-identical output to any other domain count.")

let profile =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Self-profile the run (leases or polling; with --domains one profile per shard): \
                 attribute wall time and GC allocation to per-subsystem cost centers and sample \
                 engine health (queue depth, cancel ratio, events per sim-second) on the \
                 telemetry cadence.  Prints a hotspot table; see leases-profile-view, which \
                 also converts a --profile-out report to a flamegraph format.")

let profile_out =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Write the leases-profile/1 report to $(docv); requires --profile.")

let latency =
  Arg.(value & flag
       & info [ "latency" ]
           ~doc:"Attribute every operation's client-observed latency to causal phases (request \
                 transit, backoff, server queueing, lease waits split by approval vs expiry, \
                 reply transit) with a live critical-path analyzer (leases or polling).  \
                 Prints per-phase tail summaries and worst-write explanations; see \
                 leases-latency.")

let latency_out =
  Arg.(value & opt (some string) None
       & info [ "latency-out" ] ~docv:"FILE"
           ~doc:"Write the leases-latency/1 JSON report to $(docv) (leases-latency input); \
                 requires --latency.")

let latency_k =
  Arg.(value & opt int 5
       & info [ "latency-k" ] ~docv:"N"
           ~doc:"Keep $(docv) worst-write exemplars in the latency report.")

let cmd =
  let doc = "Simulate a distributed file cache under a chosen consistency protocol." in
  Cmd.v (Cmd.info "leases-sim" ~doc)
    Term.(ret (const main $ protocol $ term $ clients $ duration $ seed $ loss $ rtt $ workload
               $ ops_file $ json $ trace_out $ trace_format $ faults $ telemetry $ telemetry_out
               $ telemetry_format $ shards $ domains $ profile $ profile_out
               $ latency $ latency_out $ latency_k))

(* cmdliner reads every token that starts with '-' as an option, so a
   negative seed or term after its flag is refused ("unknown option '-6'").
   Join such a value to its flag first: "-s" "-6" becomes "-s-6" and
   "--seed" "-6" becomes "--seed=-6", the forms cmdliner parses as a value. *)
let join_negative_values argv =
  let negative tok =
    String.length tok > 1 && tok.[0] = '-' && Option.is_some (float_of_string_opt tok)
  in
  let rec go = function
    | (("-s" | "-t") as flag) :: value :: rest when negative value -> (flag ^ value) :: go rest
    | (("--seed" | "--term") as flag) :: value :: rest when negative value ->
      (flag ^ "=" ^ value) :: go rest
    | tok :: rest -> tok :: go rest
    | [] -> []
  in
  Array.of_list (go (Array.to_list argv))

let () = exit (Cmd.eval ~argv:(join_negative_values Sys.argv) cmd)
