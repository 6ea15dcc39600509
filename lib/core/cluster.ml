open Simtime
module Host_id = Host.Host_id

module Faults = struct
  type fault =
    | Crash_client of { client : int; at : Time.t; duration : Time.Span.t }
    | Crash_server of { at : Time.t; duration : Time.Span.t }
    | Crash_shard of { shard : int; at : Time.t; duration : Time.Span.t }
    | Partition_clients of { clients : int list; at : Time.t; duration : Time.Span.t }
    | Client_drift of { client : int; at : Time.t; drift : float }
    | Server_drift of { shard : int; at : Time.t; drift : float }
    | Client_step of { client : int; at : Time.t; step : Time.Span.t }
    | Server_step of { shard : int; at : Time.t; step : Time.Span.t }

  (* --- fault command-line specs -------------------------------------- *)
  (* The textual form used by [leases-sim --fault] and printed by the
     campaign harness's shrunk reproducers; [fault_of_spec] and
     [fault_to_spec] round-trip (times carry microsecond precision). *)

  let spec_num v =
    (* Shortest decimal that survives the parse; times are on the
       microsecond grid so 12 significant digits always suffice. *)
    Printf.sprintf "%.12g" v

  let fault_to_spec fault =
    let t at = spec_num (Time.to_sec at) and d span = spec_num (Time.Span.to_sec span) in
    match fault with
    | Crash_client { client; at; duration } ->
      Printf.sprintf "crash-client=%d,%s,%s" client (t at) (d duration)
    | Crash_server { at; duration } -> Printf.sprintf "crash-server=%s,%s" (t at) (d duration)
    | Crash_shard { shard; at; duration } ->
      Printf.sprintf "crash-shard=%d,%s,%s" shard (t at) (d duration)
    | Partition_clients { clients; at; duration } ->
      Printf.sprintf "partition=%s,%s,%s"
        (String.concat "+" (List.map string_of_int clients))
        (t at) (d duration)
    | Client_drift { client; at; drift } ->
      Printf.sprintf "client-drift=%d,%s,%s" client (t at) (spec_num drift)
    (* shard 0 keeps the pre-sharding two-argument form so shrunk
       reproducers from old campaigns stay replayable byte-for-byte *)
    | Server_drift { shard = 0; at; drift } ->
      Printf.sprintf "server-drift=%s,%s" (t at) (spec_num drift)
    | Server_drift { shard; at; drift } ->
      Printf.sprintf "server-drift=%d,%s,%s" shard (t at) (spec_num drift)
    | Client_step { client; at; step } ->
      Printf.sprintf "client-step=%d,%s,%s" client (t at) (d step)
    | Server_step { shard = 0; at; step } -> Printf.sprintf "server-step=%s,%s" (t at) (d step)
    | Server_step { shard; at; step } ->
      Printf.sprintf "server-step=%d,%s,%s" shard (t at) (d step)

  let fault_of_spec spec =
    let fail () =
      Error
        (Printf.sprintf
           "bad fault spec %S: expected crash-client=CLIENT,AT,DUR | crash-server=AT,DUR | \
            crash-shard=SHARD,AT,DUR | partition=C1+C2+...,AT,DUR | client-drift=CLIENT,AT,RATE | \
            server-drift=[SHARD,]AT,RATE | client-step=CLIENT,AT,SEC | server-step=[SHARD,]AT,SEC \
            (indices non-negative integers; AT and DUR non-negative, finite, in virtual seconds; \
            RATE and SEC finite)"
           spec)
    in
    let exception Bad in
    let num s = match float_of_string_opt (String.trim s) with Some v -> v | None -> raise Bad in
    let non_neg v = if v >= 0. then v else raise Bad in
    let index s =
      match int_of_string_opt (String.trim s) with
      | Some i when i >= 0 -> i
      | Some _ | None -> raise Bad
    in
    match String.index_opt spec '=' with
    | None -> fail ()
    | Some eq -> (
      let kind = String.sub spec 0 eq in
      let args =
        String.split_on_char ',' (String.sub spec (eq + 1) (String.length spec - eq - 1))
      in
      let sec v = Time.of_sec (non_neg (num v)) in
      let dur v = Time.Span.of_sec (non_neg (num v)) in
      let span v = Time.Span.of_sec (num v) in
      let rate v = match num v with r when Float.is_finite r -> r | _ -> raise Bad in
      try
        Ok
          (match (kind, args) with
          | "crash-client", [ c; a; d ] -> Crash_client { client = index c; at = sec a; duration = dur d }
          | "crash-server", [ a; d ] -> Crash_server { at = sec a; duration = dur d }
          | "crash-shard", [ s; a; d ] -> Crash_shard { shard = index s; at = sec a; duration = dur d }
          | "partition", [ cs; a; d ] ->
            let clients = List.map index (String.split_on_char '+' cs) in
            Partition_clients { clients; at = sec a; duration = dur d }
          | "client-drift", [ c; a; r ] -> Client_drift { client = index c; at = sec a; drift = rate r }
          | "server-drift", [ a; r ] -> Server_drift { shard = 0; at = sec a; drift = rate r }
          | "server-drift", [ s; a; r ] -> Server_drift { shard = index s; at = sec a; drift = rate r }
          | "client-step", [ c; a; v ] -> Client_step { client = index c; at = sec a; step = span v }
          | "server-step", [ a; v ] -> Server_step { shard = 0; at = sec a; step = span v }
          | "server-step", [ s; a; v ] -> Server_step { shard = index s; at = sec a; step = span v }
          | _ -> raise Bad)
      with
      | Bad -> fail ()
      (* [Time.of_sec] rejects non-finite and overflowing values; a spec
         carrying one is malformed, not a crash. *)
      | Invalid_argument _ -> fail ())
end

include Faults

let check ~who ~n_clients faults trace =
  if n_clients < 1 then invalid_arg (who ^ ": need at least one client");
  for i = 0 to Workload.Trace.length trace - 1 do
    if Workload.Trace.client trace i >= n_clients then
      invalid_arg (who ^ ": trace uses a client index outside the cluster")
  done;
  List.iter
    (fun fault ->
      let bad why = invalid_arg (Printf.sprintf "%s: fault %s %s" who (fault_to_spec fault) why) in
      let client c =
        if c < 0 || c >= n_clients then
          bad (Printf.sprintf "names client %d, outside the cluster's 0..%d" c (n_clients - 1))
      in
      let shard s = if s < 0 then bad "names a negative shard" in
      let at t = if Time.(t < zero) then bad "starts before time 0" in
      let duration d = if Time.Span.is_negative d then bad "has a negative duration" in
      let rate r = if not (Float.is_finite r && r > -1.) then bad "needs a finite drift above -1" in
      match fault with
      | Crash_client { client = c; at = t; duration = d } -> client c; at t; duration d
      | Crash_server { at = t; duration = d } -> at t; duration d
      | Crash_shard { shard = s; at = t; duration = d } -> shard s; at t; duration d
      | Partition_clients { clients; at = t; duration = d } ->
        List.iter client clients; at t; duration d
      | Client_drift { client = c; at = t; drift } -> client c; at t; rate drift
      | Client_step { client = c; at = t; _ } -> client c; at t
      | Server_drift { shard = s; at = t; drift } -> shard s; at t; rate drift
      | Server_step { shard = s; at = t; _ } -> shard s; at t)
    faults

(* --- fabric --------------------------------------------------------- *)

type 'p fabric = {
  engine : Engine.t;
  liveness : Host.Liveness.t;
  partition : Netsim.Partition.t;
  rng : Prng.Splitmix.t;
  net : 'p Netsim.Net.t;
  tracer : Trace.Sink.t;
  profiler : Profile.Recorder.t;
}

let fabric ?(tracer = Trace.Sink.null) ?(profiler = Profile.Recorder.null) ?classify ~rng ~loss
    ~m_prop ~m_proc () =
  let engine = Engine.create () in
  Engine.set_profiler engine profiler;
  (* When both profiling and tracing are live, bracket every sink push so
     emission cost lands in the [trace/emit] center rather than polluting
     whichever subsystem happened to emit. *)
  let tracer =
    if Profile.Recorder.enabled profiler then
      Trace.Sink.observe tracer
        ~enter:(fun () -> Profile.Recorder.enter profiler Profile.Center.Trace_emit)
        ~leave:(fun () -> Profile.Recorder.exit profiler)
    else tracer
  in
  Engine.set_tracer engine tracer;
  let liveness = Host.Liveness.create () in
  let partition = Netsim.Partition.create () in
  let net =
    Netsim.Net.create engine ~liveness ~partition ~rng:(Prng.Splitmix.split rng) ~loss ~tracer
      ?classify ~prop_delay:m_prop ~proc_delay:m_proc ()
  in
  { engine; liveness; partition; rng; net; tracer; profiler }

(* --- faults --------------------------------------------------------- *)

type hosts = {
  client : int -> Host_id.t * Clock.t option;
  server : int -> (Host_id.t * Clock.t option) option;
  trace_clients : bool;
}

let server_host = Host_id.of_int 0
let client_host i = Host_id.of_int (i + 1)

let one_server ?clocks () =
  {
    client = (fun i -> (client_host i, Option.map (fun (_, client) -> client i) clocks));
    server = (fun _ -> Some (server_host, Option.map fst clocks));
    trace_clients = true;
  }

let schedule_faults w hosts faults =
  let engine = w.engine in
  let at_time at f = ignore (Engine.schedule_at engine at f) in
  let note ev =
    if Trace.Sink.enabled w.tracer then
      Trace.Sink.emit w.tracer (Time.to_sec (Engine.now engine)) (ev ())
  in
  let note_client ev = if hosts.trace_clients then note ev in
  let crash note host at duration =
    let id = Host_id.to_int host in
    at_time at (fun () ->
        note (fun () -> Trace.Event.Crash { host = id });
        Host.Liveness.crash w.liveness host;
        ignore
          (Engine.schedule_after engine duration (fun () ->
               note (fun () -> Trace.Event.Recover { host = id });
               Host.Liveness.recover w.liveness host)))
  in
  (* a clock fault applies only where the host has a clock *)
  let clock note target at (ev, apply) =
    match target with
    | Some (host, Some c) ->
      at_time at (fun () ->
          note (fun () -> ev (Host_id.to_int host));
          apply c)
    | Some (_, None) | None -> ()
  in
  let drift d =
    ((fun host -> Trace.Event.Clock_drift { host; drift = d }), fun c -> Clock.set_drift c d)
  in
  let step s =
    ( (fun host -> Trace.Event.Clock_step { host; step_s = Time.Span.to_sec s }),
      fun c -> Clock.step c s )
  in
  let crash_server shard at duration =
    Option.iter (fun (host, _) -> crash note host at duration) (hosts.server shard)
  in
  List.iter
    (function
      | Crash_client { client; at; duration } ->
        crash note_client (fst (hosts.client client)) at duration
      | Crash_server { at; duration } -> crash_server 0 at duration
      | Crash_shard { shard; at; duration } -> crash_server shard at duration
      | Partition_clients { clients; at; duration } ->
        let hosts = List.map (fun c -> fst (hosts.client c)) clients in
        at_time at (fun () ->
            Netsim.Partition.isolate w.partition hosts;
            ignore
              (Engine.schedule_after engine duration (fun () -> Netsim.Partition.heal w.partition)))
      | Client_drift { client; at; drift = d } ->
        clock note_client (Some (hosts.client client)) at (drift d)
      | Server_drift { shard; at; drift = d } -> clock note (hosts.server shard) at (drift d)
      | Client_step { client; at; step = s } ->
        clock note_client (Some (hosts.client client)) at (step s)
      | Server_step { shard; at; step = s } -> clock note (hosts.server shard) at (step s))
    faults

(* --- issuing the workload ------------------------------------------- *)

type tally = {
  oracle : Oracle.Register_oracle.t;
  engine : Engine.t;
  mutable ops_issued : int;
  mutable temp_ops : int;
  read_latency : Stats.Histogram.t;
  write_latency : Stats.Histogram.t;
}

let drive (w : _ fabric) ~oracle ~read ~write trace =
  let t =
    {
      oracle;
      engine = w.engine;
      ops_issued = 0;
      temp_ops = 0;
      read_latency = Stats.Histogram.create ();
      write_latency = Stats.Histogram.create ();
    }
  in
  let prof = w.profiler in
  let n = Workload.Trace.length trace in
  (* Ops are time-ordered ([Workload.Trace] sorts), so each op's event
     issues it and schedules the next.  The engine then holds only
     in-flight work — deliveries, timers, the one cursor entry — instead
     of the entire remaining workload; with 100k pre-scheduled ops every
     pop paid a ~17-level sift over cold memory before any protocol work
     began.  The cursor is the op's index on an engine lane, pushed after
     the op's own work as a heap event would be, and one closure serves
     the whole run: it reads op [i]'s fields from the trace's arrays and
     allocates nothing. *)
  let issue lane i =
    if Profile.Recorder.enabled prof then Profile.Recorder.mark prof Profile.Center.Client_op;
    if Workload.Trace.temporary trace i then t.temp_ops <- t.temp_ops + 1
    else begin
      t.ops_issued <- t.ops_issued + 1;
      let client = Workload.Trace.client trace i and file = Workload.Trace.file trace i in
      let start = Workload.Trace.at trace i in
      match Workload.Trace.kind trace i with
      | Workload.Op.Read -> read t ~client file ~start
      | Workload.Op.Write -> write t ~client file ~start
    end;
    if i + 1 < n then Engine.lane_push lane (Workload.Trace.at trace (i + 1)) (i + 1)
  in
  if n > 0 then Engine.lane_push (Engine.lane w.engine issue) (Workload.Trace.at trace 0) 0;
  t

(* One latency sample per completion: the histograms' counts are the
   completed reads and writes. *)
let dirty_read_done t latency = Stats.Histogram.add t.read_latency (Time.Span.to_sec latency)

let read_done t ~file ~start version latency =
  dirty_read_done t latency;
  (* the op was issued at [start]: its event fires exactly then *)
  Oracle.Register_oracle.check_read t.oracle ~file ~version ~start ~finish:(Engine.now t.engine)

let write_done t latency = Stats.Histogram.add t.write_latency (Time.Span.to_sec latency)

(* --- running and metrics -------------------------------------------- *)

let horizon trace ~drain = Time.add Time.zero (Time.Span.add (Workload.Trace.duration trace) drain)

let run (w : _ fabric) ~until =
  let prof = w.profiler in
  if Profile.Recorder.enabled prof then Profile.Recorder.start prof;
  Engine.run ~until w.engine;
  if Profile.Recorder.enabled prof then Profile.Recorder.stop prof;
  Trace.Sink.flush w.tracer

let derive ~rtt_s (m : Metrics.t) =
  let hits = m.cache_hits and misses = m.cache_misses in
  let mean_write_added = Float.max 0. (Stats.Histogram.mean m.write_latency -. rtt_s) in
  let reads = Stats.Histogram.count m.read_latency in
  let writes = Stats.Histogram.count m.write_latency in
  let mean_op_delay =
    if reads + writes = 0 then 0.
    else
      ((Stats.Histogram.mean m.read_latency *. float_of_int reads)
      +. (mean_write_added *. float_of_int writes))
      /. float_of_int (reads + writes)
  in
  {
    m with
    hit_ratio =
      (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
    consistency_msg_rate =
      (if m.sim_duration <= 0. then 0.
       else float_of_int m.consistency_msgs /. m.sim_duration);
    mean_read_delay = Stats.Histogram.mean m.read_latency;
    mean_write_delay_added = mean_write_added;
    mean_op_delay;
  }

let metrics ?(write_over_rtt = true) (w : _ fabric) (t : tally) protocol =
  let oracle = t.oracle in
  let reads = Stats.Histogram.count t.read_latency in
  let writes = Stats.Histogram.count t.write_latency in
  let rtt_s = if write_over_rtt then Time.Span.to_sec (Netsim.Net.unicast_rtt w.net) else 0. in
  derive ~rtt_s
    (protocol
       {
         Metrics.sim_duration = Time.Span.to_sec (Time.Span.since_epoch (Engine.now w.engine));
         ops_issued = t.ops_issued;
         reads_completed = reads;
         writes_completed = writes;
         temp_ops = t.temp_ops;
         dropped_ops = t.ops_issued - reads - writes;
         read_latency = t.read_latency;
         write_latency = t.write_latency;
         net_sent = Netsim.Net.sent w.net;
         net_dropped_loss = Netsim.Net.dropped_loss w.net;
         net_dropped_partition = Netsim.Net.dropped_partition w.net;
         net_dropped_down = Netsim.Net.dropped_down w.net;
         oracle_reads = Oracle.Register_oracle.reads_checked oracle;
         oracle_violations = Oracle.Register_oracle.violations oracle;
         staleness = Oracle.Register_oracle.staleness oracle;
         (* the protocol's own counters, filled in by [protocol] *)
         cache_hits = 0;
         cache_misses = 0;
         msgs_extension = 0;
         msgs_approval = 0;
         msgs_installed = 0;
         msgs_write_transfer = 0;
         consistency_msgs = 0;
         server_total_msgs = 0;
         callbacks_sent = 0;
         commits = 0;
         wal_io = 0;
         write_wait = Stats.Histogram.create ();
         retransmissions = 0;
         renewals_sent = 0;
         approvals_answered = 0;
         (* recomputed by [derive] *)
         hit_ratio = 0.;
         consistency_msg_rate = 0.;
         mean_read_delay = 0.;
         mean_write_delay_added = 0.;
         mean_op_delay = 0.;
       })
