open Simtime
module Host_id = Host.Host_id

type setup = {
  seed : int64;
  n_clients : int;
  n_shards : int;
  config : Leases.Config.t;
  m_prop : Time.Span.t;
  m_proc : Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Time.Span.t;
  tracer : Trace.Sink.t;
  on_instruments : Leases.Sim.world -> Leases.Cluster.tally -> unit;
  profilers : Profile.Recorder.t array;
}

let default_setup =
  {
    seed = 1L;
    n_clients = 1;
    n_shards = 4;
    config = Leases.Config.default;
    m_prop = Time.Span.of_ms 0.5;
    m_proc = Time.Span.of_ms 1.;
    loss = 0.;
    faults = [];
    drain = Time.Span.of_sec 120.;
    tracer = Trace.Sink.null;
    on_instruments = (fun _ _ -> ());
    profilers = [||];
  }

(* Host layout: shard s's server is host s; client i is host n_shards + i. *)
let server_host s = Host_id.of_int s
let client_host setup i = Host_id.of_int (setup.n_shards + i)
let server_hosts setup = List.init setup.n_shards (fun s -> Host_id.to_int (server_host s))
let shard_map setup = Shard_map.create ~seed:setup.seed ~shards:setup.n_shards ()

type shard_load = {
  sl_shard : int;
  sl_host : int;
  sl_extension_msgs : int;
  sl_approval_msgs : int;
  sl_installed_msgs : int;
  sl_consistency_msgs : int;
  sl_total_msgs : int;
  sl_commits : int;
  sl_consistency_rate : float;  (** consistency messages per virtual second *)
}

type outcome = {
  metrics : Leases.Metrics.t;
  per_shard : shard_load array;
  map : Shard_map.t;
  oracle : Oracle.Register_oracle.t;
  store : Vstore.Store.t;
}

(* A shard server multicasts installed-file refreshes only for the files
   it owns; splitting the configured population keeps the global refresh
   traffic identical to the single-server deployment. *)
let config_for_shard setup map s =
  match setup.config.Leases.Config.installed with
  | None -> setup.config
  | Some inst ->
    let files = List.filter (fun f -> Shard_map.owner map f = s) inst.Leases.Config.files in
    {
      setup.config with
      Leases.Config.installed =
        (if files = [] then None else Some { inst with Leases.Config.files });
    }

let load_of_server ~shard ~metrics server =
  let m = Leases.Metrics.with_messages [| Leases.Server.messages server |] metrics in
  {
    sl_shard = shard;
    sl_host = Host_id.to_int (server_host shard);
    sl_extension_msgs = m.msgs_extension;
    sl_approval_msgs = m.msgs_approval;
    sl_installed_msgs = m.msgs_installed;
    sl_consistency_msgs = m.consistency_msgs;
    sl_total_msgs = m.server_total_msgs;
    sl_commits = Leases.Server.commits server;
    sl_consistency_rate =
      (if m.sim_duration <= 0. then 0. else float_of_int m.consistency_msgs /. m.sim_duration);
  }

(* The [Sim] setup of one lease world of this deployment: the shared-fabric
   cluster, whose engine [profilers.(0)] records, or split part [shard]. *)
let world_setup setup ~tracer ~shard =
  {
    Leases.Sim.default_setup with
    n_clients = setup.n_clients;
    config = setup.config;
    m_prop = setup.m_prop;
    m_proc = setup.m_proc;
    loss = setup.loss;
    faults = setup.faults;
    tracer;
    profiler =
      (if shard < Array.length setup.profilers then setup.profilers.(shard)
       else Profile.Recorder.null);
    on_instruments = setup.on_instruments;
  }

let run setup ~trace =
  Leases.Cluster.check ~who:"Deploy.run" ~n_clients:setup.n_clients setup.faults trace;
  if setup.n_shards < 1 then invalid_arg "Deploy.run: need at least one shard";
  let k = setup.n_shards in
  let map = shard_map setup in
  (* One shared store, disjoint ownership: each server only ever grants and
     commits the files the map routes to it, and each keeps its own WAL so
     the max-term recovery wait is per shard.  One server needs no route,
     so a one-shard run builds exactly [Sim.run]'s world. *)
  let w, metrics =
    Leases.Sim.run_world
      (world_setup setup ~tracer:setup.tracer ~shard:0)
      ~client_host:(client_host setup)
      ~rng:(Prng.Splitmix.create ~seed:setup.seed)
      ~servers:(Array.init k (fun s -> (server_host s, config_for_shard setup map s)))
      ?route:(if k > 1 then Some (Shard_map.owner map) else None)
      ~server_of_shard:(fun s -> Some (s mod k))
      ~trace_clients:true
      ~until:(Leases.Cluster.horizon trace ~drain:setup.drain)
      trace
  in
  {
    metrics;
    per_shard = Array.mapi (fun s server -> load_of_server ~shard:s ~metrics server) w.servers;
    map;
    oracle = w.oracle;
    store = w.store;
  }

(* ------------------------------------------------------------------ *)
(* Split deployment: one self-contained sub-simulation per shard.      *)

type part = { p_metrics : Leases.Metrics.t }

type split_outcome = {
  sp_metrics : Leases.Metrics.t;
  sp_per_shard : shard_load array;
  sp_map : Shard_map.t;
  sp_parts : part array;
}

(* What one part's run leaves behind until the parts are merged: its
   trace (time-ordered; empty untraced) and its net's round trip go no
   further than [run_split]. *)
type part_run = {
  r_part : part;
  r_load : shard_load;
  r_events : Trace.Event.t list;
  r_rtt_s : float;
}

(* One shard as a complete, isolated simulation: a one-server world at
   host [s] with its own engine, clocks, network, store, WAL, trace
   buffer and profile recorder, so parts may run on separate domains;
   [rng] was pre-split from the master seed before any domain started.
   All [n_clients] client machines exist in every part (a client idle on
   this shard contributes nothing), so client-level faults apply in every
   part but only part 0 traces them; server faults apply, and are traced,
   only in the part owning their shard.  The setup's [on_instruments]
   hook sees the part's world on the part's domain. *)
let run_split_part setup ~map ~rng ~horizon ~part_trace ~shard:s =
  let buf = if Trace.Sink.enabled setup.tracer then Some (Trace.Sink.buffer ()) else None in
  let tracer = match buf with Some b -> Trace.Sink.buffer_sink b | None -> Trace.Sink.null in
  (* Distinct request-id origins per part: the shard index sits above a
     26-bit per-part sequence, below the host bits, so correlation ids stay
     unique in the merged stream. *)
  let req_origin host = (Host_id.to_int host lsl 32) lor (s lsl 26) in
  let w, metrics =
    Leases.Sim.run_world (world_setup setup ~tracer ~shard:s) ~client_host:(client_host setup)
      ~rng ~servers:[| (server_host s, config_for_shard setup map s) |] ~req_origin
      ~server_of_shard:(fun shard -> if shard mod setup.n_shards = s then Some 0 else None)
      ~trace_clients:(s = 0) ~until:horizon part_trace
  in
  {
    r_part = { p_metrics = metrics };
    r_load = load_of_server ~shard:s ~metrics w.servers.(0);
    r_events = (match buf with Some b -> Trace.Sink.buffer_contents b | None -> []);
    r_rtt_s = Time.Span.to_sec (Netsim.Net.unicast_rtt w.fabric.Leases.Cluster.net);
  }

(* Deterministic merge: every integer field sums; histograms fold with
   [Stats.Histogram.merge] in shard order, so float accumulation order is
   fixed; the derived fields are recomputed from the merged raw values by
   [Cluster.derive], as every single-world run computes them.  Every part
   ran to the same horizon, so [sim_duration] is common. *)
let merge_split_metrics ~rtt_s parts =
  let sum f = Array.fold_left (fun acc (p : part) -> acc + f p.p_metrics) 0 parts in
  let merged_hist f =
    let h = Stats.Histogram.create () in
    Array.iter (fun (p : part) -> Stats.Histogram.merge h (f p.p_metrics)) parts;
    h
  in
  let open Leases.Metrics in
  Leases.Cluster.derive ~rtt_s
    {
      (parts.(0).p_metrics) with
      ops_issued = sum (fun m -> m.ops_issued);
      reads_completed = sum (fun m -> m.reads_completed);
      writes_completed = sum (fun m -> m.writes_completed);
      temp_ops = sum (fun m -> m.temp_ops);
      dropped_ops = sum (fun m -> m.dropped_ops);
      cache_hits = sum (fun m -> m.cache_hits);
      cache_misses = sum (fun m -> m.cache_misses);
      msgs_extension = sum (fun m -> m.msgs_extension);
      msgs_approval = sum (fun m -> m.msgs_approval);
      msgs_installed = sum (fun m -> m.msgs_installed);
      msgs_write_transfer = sum (fun m -> m.msgs_write_transfer);
      consistency_msgs = sum (fun m -> m.consistency_msgs);
      server_total_msgs = sum (fun m -> m.server_total_msgs);
      callbacks_sent = sum (fun m -> m.callbacks_sent);
      commits = sum (fun m -> m.commits);
      wal_io = sum (fun m -> m.wal_io);
      read_latency = merged_hist (fun m -> m.read_latency);
      write_latency = merged_hist (fun m -> m.write_latency);
      write_wait = merged_hist (fun m -> m.write_wait);
      retransmissions = sum (fun m -> m.retransmissions);
      renewals_sent = sum (fun m -> m.renewals_sent);
      approvals_answered = sum (fun m -> m.approvals_answered);
      net_sent = sum (fun m -> m.net_sent);
      net_dropped_loss = sum (fun m -> m.net_dropped_loss);
      net_dropped_partition = sum (fun m -> m.net_dropped_partition);
      net_dropped_down = sum (fun m -> m.net_dropped_down);
      oracle_reads = sum (fun m -> m.oracle_reads);
      oracle_violations = sum (fun m -> m.oracle_violations);
      staleness = merged_hist (fun m -> m.staleness);
    }

let run_split ?(domains = 1) setup ~trace =
  Leases.Cluster.check ~who:"Deploy.run_split" ~n_clients:setup.n_clients setup.faults trace;
  if setup.n_shards < 1 then invalid_arg "Deploy.run_split: need at least one shard";
  if domains < 1 then invalid_arg "Deploy.run_split: need at least one domain";
  let map = shard_map setup in
  (* RNG streams pre-split in shard order before any domain spawns: the
     draw sequence is fixed by construction, so domain scheduling cannot
     perturb seeded determinism. *)
  let master = Prng.Splitmix.create ~seed:setup.seed in
  let rngs = Array.init setup.n_shards (fun _ -> Prng.Splitmix.split master) in
  (* each part keeps the trace's order, so nothing re-sorts *)
  let part_traces =
    Workload.Trace.partition trace ~parts:setup.n_shards ~f:(fun i ->
        Shard_map.owner map (Workload.Trace.file trace i))
  in
  let horizon = Leases.Cluster.horizon trace ~drain:setup.drain in
  let run_part s =
    run_split_part setup ~map ~rng:rngs.(s) ~horizon ~part_trace:part_traces.(s) ~shard:s
  in
  let runs =
    let n_dom = Int.min domains setup.n_shards in
    if n_dom <= 1 then Array.init setup.n_shards run_part
    else begin
      (* Work-stealing over the shard indices: each slot is written by
         exactly one domain and read only after the joins, which is the
         happens-before edge that publishes the parts. *)
      let results = Array.make setup.n_shards None in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let s = Atomic.fetch_and_add next 1 in
          if s < setup.n_shards then begin
            results.(s) <- Some (run_part s);
            loop ()
          end
        in
        loop ()
      in
      let spawned = Array.init (n_dom - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join spawned;
      Array.map (function Some p -> p | None -> assert false) results
    end
  in
  (* Merge the per-shard streams by (timestamp, shard): each part's buffer
     is already time-ordered, and a stable sort of the shard-ordered
     concatenation breaks timestamp ties by shard.  Replaying into the
     caller's sink feeds whatever it wired up — a JSONL writer, a checker
     buffer, a critical-path analyzer tee. *)
  if Trace.Sink.enabled setup.tracer then begin
    let all = List.concat_map (fun r -> r.r_events) (Array.to_list runs) in
    let all =
      List.stable_sort
        (fun (a : Trace.Event.t) b -> Float.compare a.Trace.Event.at b.Trace.Event.at)
        all
    in
    List.iter setup.tracer.Trace.Sink.push all;
    Trace.Sink.flush setup.tracer
  end;
  let parts = Array.map (fun r -> r.r_part) runs in
  {
    sp_metrics = merge_split_metrics ~rtt_s:runs.(0).r_rtt_s parts;
    sp_per_shard = Array.map (fun r -> r.r_load) runs;
    sp_map = map;
    sp_parts = parts;
  }
