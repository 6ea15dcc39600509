(* The traced run: the workload once more at the same size and seed, with a
   counting trace sink and profile recorders attached, followed by timed
   replays of a prefix of its event stream and the layer micros at the
   shape it measured.  End-to-end numbers never come from here. *)

module Event = Trace.Event
module Sim = Leases.Sim
module Deploy = Shard.Deploy
module Schedule = Fault_campaign.Schedule

(* The per-layer metrics, with their units, in report order.  Every name is
   reported for every workload. *)
let metrics =
  [
    ("workload.ops", "count");
    ("workload.gen_s", "s");
    ("workload.failed_op_share", "ratio");
    ("simtime.events", "count");
    ("simtime.events_per_op", "ratio");
    ("simtime.queue_depth_p50", "count");
    ("simtime.queue_depth_max", "count");
    ("simtime.push_pop_ns", "ns");
    ("simtime.dispatch_ns", "ns");
    ("profile.engine_dispatch.wall_pct", "%");
    ("net.attempts", "count");
    ("net.delivered", "count");
    ("net.dropped_loss", "count");
    ("net.dropped_partition", "count");
    ("net.dropped_down", "count");
    ("net.delivery_ratio", "ratio");
    ("net.attempts_per_op", "ratio");
    ("net.deliver_ns", "ns");
    ("profile.net_delivery.wall_pct", "%");
    ("client.reads", "count");
    ("client.hits", "count");
    ("client.hit_ratio", "ratio");
    ("client.invalidations", "count");
    ("client.retransmissions", "count");
    ("client.renewals", "count");
    ("client.read_hit_ns", "ns");
    ("client.read_miss_ns", "ns");
    ("profile.client_op.wall_pct", "%");
    ("profile.client_handle.wall_pct", "%");
    ("server.grants", "count");
    ("server.renewal_grants", "count");
    ("server.grants_per_miss", "ratio");
    ("server.reaps", "count");
    ("server.grant_ns", "ns");
    ("profile.server_grant.wall_pct", "%");
    ("server.commits", "count");
    ("server.waited_commits", "count");
    ("server.wait_expiries", "count");
    ("server.approval_requests", "count");
    ("server.approval_fanout_mean", "count");
    ("server.approval_fanout_max", "count");
    ("server.approval_replies", "count");
    ("server.write_wait_p50_s", "s");
    ("server.write_wait_p99_s", "s");
    ("server.write_commit_ns", "ns");
    ("profile.server_write.wall_pct", "%");
    ("sim.build_s", "s");
    ("profile.other.wall_pct", "%");
    ("shard.cpu_util", "ratio");
    ("shard.part_ops_max_over_mean", "ratio");
    ("trace.events", "count");
    ("trace.checker_ns_per_event", "ns");
    ("trace.critical_path_ns_per_event", "ns");
    ("trace.codec_ns_per_event", "ns");
    ("trace.checker_violations", "count");
    ("profile.trace_emit.wall_pct", "%");
    ("traced_run.overhead_x", "x");
    ("oracle.reads_checked", "count");
    ("oracle.violations", "count");
  ]

(* --- the counting sink ------------------------------------------------- *)

type counts = {
  mutable events : int;
  mutable attempts : int;
  mutable delivered : int;
  mutable dropped_loss : int;
  mutable dropped_partition : int;
  mutable dropped_down : int;
  mutable grants : int;
  mutable renewal_grants : int;
  mutable reaps : int;
  mutable invalidations : int;
  mutable commits : int;
  mutable waited_commits : int;
  mutable wait_expiries : int;
  mutable approval_requests : int;
  mutable fanout_sum : int;
  mutable fanout_max : int;
  mutable approval_replies : int;
  mutable depths : int list;  (** heartbeat queue depths *)
}

(* A replayable slice of the stream, with what the checker needs to know
   about the cluster that produced it. *)
type segment = { stream : Event.t list; servers : int list; owner : int -> int }

(* Buffering the whole stream of a long run takes gigabytes, so only its
   first [cap] events are kept for the replays. *)
type prefix = {
  cap : int;
  mutable kept : int;
  mutable current : Event.t list;  (** the run in progress, newest first *)
  mutable segments : segment list;  (** finished runs, newest first *)
}

let count c p (e : Event.t) =
  c.events <- c.events + 1;
  if p.kept < p.cap then begin
    p.kept <- p.kept + 1;
    p.current <- e :: p.current
  end;
  match e.Event.ev with
  | Event.Net_send _ -> c.attempts <- c.attempts + 1
  | Event.Net_deliver _ -> c.delivered <- c.delivered + 1
  | Event.Net_drop { cause = Event.Loss; _ } -> c.dropped_loss <- c.dropped_loss + 1
  | Event.Net_drop { cause = Event.Partition; _ } -> c.dropped_partition <- c.dropped_partition + 1
  | Event.Net_drop { cause = Event.Down; _ } -> c.dropped_down <- c.dropped_down + 1
  | Event.Lease_grant { renewal; _ } ->
    c.grants <- c.grants + 1;
    if renewal then c.renewal_grants <- c.renewal_grants + 1
  | Event.Lease_expire _ -> c.reaps <- c.reaps + 1
  | Event.Cache_invalidate _ -> c.invalidations <- c.invalidations + 1
  | Event.Commit { write; _ } ->
    c.commits <- c.commits + 1;
    if Option.is_some write then c.waited_commits <- c.waited_commits + 1
  | Event.Wait_expire _ -> c.wait_expiries <- c.wait_expiries + 1
  | Event.Approval_request { dsts; _ } ->
    let n = List.length dsts in
    c.approval_requests <- c.approval_requests + 1;
    c.fanout_sum <- c.fanout_sum + n;
    c.fanout_max <- max c.fanout_max n
  | Event.Approval_reply _ -> c.approval_replies <- c.approval_replies + 1
  | Event.Heartbeat { pending } -> c.depths <- pending :: c.depths
  | _ -> ()

let sink c p = { Trace.Sink.enabled = true; push = count c p; flush = ignore }

let close_segment p ~servers ~owner =
  p.segments <- { stream = List.rev p.current; servers; owner } :: p.segments;
  p.current <- []

(* --- helpers ----------------------------------------------------------- *)

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let percentile sorted q =
  match sorted with
  | [||] -> 0.
  | a -> fi a.(min (Array.length a - 1) (int_of_float (q *. fi (Array.length a))))

let empty_trace = Workload.Trace.of_ops []

(* Metrics summed over the runs a traced workload made (one, or one per
   campaign schedule); [write_wait] histograms are folded. *)
type totals = {
  mutable ops : int;
  mutable dropped : int;
  mutable hits : int;
  mutable misses : int;
  mutable retransmissions : int;
  mutable renewals : int;
  mutable oracle_reads : int;
  mutable oracle_violations : int;
  write_wait : Stats.Histogram.t;
}

let add_metrics t (m : Leases.Metrics.t) =
  t.ops <- t.ops + m.Leases.Metrics.ops_issued;
  t.dropped <- t.dropped + m.Leases.Metrics.dropped_ops;
  t.hits <- t.hits + m.Leases.Metrics.cache_hits;
  t.misses <- t.misses + m.Leases.Metrics.cache_misses;
  t.retransmissions <- t.retransmissions + m.Leases.Metrics.retransmissions;
  t.renewals <- t.renewals + m.Leases.Metrics.renewals_sent;
  t.oracle_reads <- t.oracle_reads + m.Leases.Metrics.oracle_reads;
  t.oracle_violations <- t.oracle_violations + m.Leases.Metrics.oracle_violations;
  Stats.Histogram.merge t.write_wait m.Leases.Metrics.write_wait

(* --- the traced run ---------------------------------------------------- *)

type result = {
  wall_s : float;  (** the traced run alone *)
  xcheck : Trace.Json.t;  (** must equal the untraced run's *)
  layers : (string * float) list;
}

let owner_of_map map f = Shard.Shard_map.owner map (Vstore.File_id.of_int f)

let run shape inputs ~timer ~cap ~scale ~gen_s =
  let c =
    {
      events = 0; attempts = 0; delivered = 0; dropped_loss = 0; dropped_partition = 0;
      dropped_down = 0; grants = 0; renewal_grants = 0; reaps = 0; invalidations = 0;
      commits = 0; waited_commits = 0; wait_expiries = 0; approval_requests = 0;
      fanout_sum = 0; fanout_max = 0; approval_replies = 0; depths = [];
    }
  in
  let p = { cap; kept = 0; current = []; segments = [] } in
  let tracer = sink c p in
  let totals =
    {
      ops = 0; dropped = 0; hits = 0; misses = 0; retransmissions = 0; renewals = 0;
      oracle_reads = 0; oracle_violations = 0; write_wait = Stats.Histogram.create ();
    }
  in
  (* Wall time only: sampling GC words at every slice boundary costs more
     than the work it measures (about 5x the untraced run on
     shared_writes), while wall-only attribution costs about 1.2x. *)
  let recorders = ref [] in
  let recorder () =
    let r = Profile.Recorder.create ~words:(fun () -> (0., 0.)) ~timer () in
    recorders := r :: !recorders;
    r
  in
  (* profiled ops, the base of [simtime.events_per_op] *)
  let profiled_ops = ref 0 in
  let part_ops = ref [] in
  let run_sim setup trace =
    let setup = { setup with Sim.tracer; profiler = recorder () } in
    let m = (Sim.run setup ~trace).Sim.metrics in
    close_segment p ~servers:[ 0 ] ~owner:(fun _ -> 0);
    profiled_ops := !profiled_ops + m.Leases.Metrics.ops_issued;
    add_metrics totals m;
    m
  in
  let t0 = timer () in
  let xcheck =
    match (shape, inputs) with
    | Workloads.Sim { clients; _ }, Workloads.Trace trace ->
      Workloads.json_of_string (Leases.Metrics.to_json (run_sim (Workloads.sim_setup clients) trace))
    | Workloads.Split { clients; shards; _ }, Workloads.Trace trace ->
      let setup =
        {
          (Workloads.split_setup ~clients ~shards) with
          Deploy.tracer;
          profilers = Array.init shards (fun _ -> recorder ());
        }
      in
      let o = Deploy.run_split ~domains:(Workloads.split_domains ()) setup ~trace in
      close_segment p ~servers:(Deploy.server_hosts setup) ~owner:(owner_of_map o.Deploy.sp_map);
      let m = o.Deploy.sp_metrics in
      profiled_ops := m.Leases.Metrics.ops_issued;
      add_metrics totals m;
      part_ops :=
        Array.to_list
          (Array.map (fun part -> part.Deploy.p_metrics.Leases.Metrics.ops_issued) o.Deploy.sp_parts);
      Workloads.json_of_string (Leases.Metrics.to_json m)
    | Workloads.Campaign _, Workloads.Schedules schedules ->
      (* Sharded schedules run on [Deploy.run], which takes no profiler:
         the profile covers the single-server schedules only. *)
      Workloads.campaign_xcheck
        (List.map
           (fun (s, trace) ->
             let m =
               if s.Schedule.n_shards = 1 then run_sim (Schedule.setup s) trace
               else begin
                 let setup = Schedule.deploy_setup ~tracer s in
                 let o = Deploy.run setup ~trace in
                 close_segment p ~servers:(Deploy.server_hosts setup)
                   ~owner:(owner_of_map o.Deploy.map);
                 add_metrics totals o.Deploy.metrics;
                 o.Deploy.metrics
               end
             in
             (m.Leases.Metrics.ops_issued, m.Leases.Metrics.dropped_ops, m.Leases.Metrics.commits))
           schedules)
    | _ -> invalid_arg "Layers.run: this workload has no traced run"
  in
  let wall_s = timer () -. t0 in
  let segments = List.rev p.segments in
  (* World construction alone: the same clusters on an empty trace. *)
  let build_s =
    let t0 = timer () in
    (match (shape, inputs) with
    | Workloads.Sim { clients; _ }, _ -> ignore (Sim.run (Workloads.sim_setup clients) ~trace:empty_trace)
    | Workloads.Split { clients; shards; _ }, _ ->
      ignore
        (Deploy.run_split ~domains:(Workloads.split_domains ())
           (Workloads.split_setup ~clients ~shards) ~trace:empty_trace)
    | Workloads.Campaign _, Workloads.Schedules schedules ->
      List.iter
        (fun (s, _) ->
          if s.Schedule.n_shards = 1 then ignore (Sim.run (Schedule.setup s) ~trace:empty_trace)
          else ignore (Deploy.run (Schedule.deploy_setup s) ~trace:empty_trace))
        schedules
    | _ -> ());
    timer () -. t0
  in
  let per_event f =
    let t0 = timer () in
    let r = f () in
    (ratio ((timer () -. t0) *. 1e9) (fi p.kept), r)
  in
  let checker_ns, checker_violations =
    per_event (fun () ->
        List.fold_left
          (fun acc seg ->
            let r = Trace.Checker.check ~servers:seg.servers ~owner:seg.owner seg.stream in
            acc + List.length r.Trace.Checker.violations)
          0 segments)
  in
  let critical_path_ns, () =
    per_event (fun () ->
        List.iter
          (fun seg ->
            let a = Trace.Critical_path.create () in
            List.iter (Trace.Critical_path.feed a) seg.stream)
          segments)
  in
  let codec_ns, () =
    per_event (fun () ->
        List.iter
          (fun seg -> List.iter (fun e -> ignore (Sys.opaque_identity (Trace.Codec.encode e))) seg.stream)
          segments)
  in
  let depths = Array.of_list c.depths in
  Array.sort compare depths;
  let fanout_mean = ratio (fi c.fanout_sum) (fi c.approval_requests) in
  let shape =
    {
      Micros.depth = int_of_float (percentile depths 0.5);
      holders = max 1 (min 4096 (Float.to_int (Float.round fanout_mean)));
    }
  in
  let micros = Micros.run ~timer ~scale shape in
  let recorders = !recorders in
  let events = List.fold_left (fun acc r -> acc + Profile.Recorder.events_total r) 0 recorders in
  let wall_total = List.fold_left (fun acc r -> acc +. Profile.Recorder.wall_total_s r) 0. recorders in
  let wall_pct center =
    let w =
      List.fold_left
        (fun acc r ->
          List.fold_left
            (fun acc (row : Profile.Recorder.row) ->
              if row.Profile.Recorder.r_center = center then acc +. row.Profile.Recorder.r_wall_s
              else acc)
            acc (Profile.Recorder.rows r))
        0. recorders
    in
    100. *. ratio w wall_total
  in
  let part_ops_max_over_mean =
    match !part_ops with
    | [] -> 1.
    | ops ->
      let mean = fi (List.fold_left ( + ) 0 ops) /. fi (List.length ops) in
      ratio (fi (List.fold_left max 0 ops)) mean
  in
  let reads = totals.hits + totals.misses in
  let ops = fi totals.ops in
  let layers =
    [
      ("workload.ops", ops);
      ("workload.gen_s", gen_s);
      ("workload.failed_op_share", ratio (fi totals.dropped) ops);
      ("simtime.events", fi events);
      ("simtime.events_per_op", ratio (fi events) (fi !profiled_ops));
      ("simtime.queue_depth_p50", percentile depths 0.5);
      ("simtime.queue_depth_max", percentile depths 1.);
      ("profile.engine_dispatch.wall_pct", wall_pct Profile.Center.Engine_dispatch);
      ("net.attempts", fi c.attempts);
      ("net.delivered", fi c.delivered);
      ("net.dropped_loss", fi c.dropped_loss);
      ("net.dropped_partition", fi c.dropped_partition);
      ("net.dropped_down", fi c.dropped_down);
      ("net.delivery_ratio", ratio (fi c.delivered) (fi c.attempts));
      ("net.attempts_per_op", ratio (fi c.attempts) ops);
      ("profile.net_delivery.wall_pct", wall_pct Profile.Center.Net_delivery);
      ("client.reads", fi reads);
      ("client.hits", fi totals.hits);
      ("client.hit_ratio", ratio (fi totals.hits) (fi reads));
      ("client.invalidations", fi c.invalidations);
      ("client.retransmissions", fi totals.retransmissions);
      ("client.renewals", fi totals.renewals);
      ("profile.client_op.wall_pct", wall_pct Profile.Center.Client_op);
      ("profile.client_handle.wall_pct", wall_pct Profile.Center.Client_handle);
      ("server.grants", fi c.grants);
      ("server.renewal_grants", fi c.renewal_grants);
      ("server.grants_per_miss", ratio (fi c.grants) (fi totals.misses));
      ("server.reaps", fi c.reaps);
      ("profile.server_grant.wall_pct", wall_pct Profile.Center.Server_grant);
      ("server.commits", fi c.commits);
      ("server.waited_commits", fi c.waited_commits);
      ("server.wait_expiries", fi c.wait_expiries);
      ("server.approval_requests", fi c.approval_requests);
      ("server.approval_fanout_mean", fanout_mean);
      ("server.approval_fanout_max", fi c.fanout_max);
      ("server.approval_replies", fi c.approval_replies);
      ("server.write_wait_p50_s", Stats.Histogram.quantile totals.write_wait 0.5);
      ("server.write_wait_p99_s", Stats.Histogram.quantile totals.write_wait 0.99);
      ("profile.server_write.wall_pct", wall_pct Profile.Center.Server_write);
      ("sim.build_s", build_s);
      ("profile.other.wall_pct", wall_pct Profile.Center.Other);
      ("shard.part_ops_max_over_mean", part_ops_max_over_mean);
      ("trace.events", fi c.events);
      ("trace.checker_ns_per_event", checker_ns);
      ("trace.critical_path_ns_per_event", critical_path_ns);
      ("trace.codec_ns_per_event", codec_ns);
      ("trace.checker_violations", fi checker_violations);
      ("profile.trace_emit.wall_pct", wall_pct Profile.Center.Trace_emit);
      ("oracle.reads_checked", fi totals.oracle_reads);
      ("oracle.violations", fi totals.oracle_violations);
    ]
    @ micros
  in
  { wall_s; xcheck; layers }
