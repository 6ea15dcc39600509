type t = {
  sim_duration : float;
  ops_issued : int;
  reads_completed : int;
  writes_completed : int;
  temp_ops : int;
  dropped_ops : int;
  cache_hits : int;
  cache_misses : int;
  hit_ratio : float;
  msgs_extension : int;
  msgs_approval : int;
  msgs_installed : int;
  msgs_write_transfer : int;
  consistency_msgs : int;
  server_total_msgs : int;
  consistency_msg_rate : float;
  callbacks_sent : int;
  commits : int;
  wal_io : int;
  read_latency : Stats.Histogram.t;
  write_latency : Stats.Histogram.t;
  write_wait : Stats.Histogram.t;
  mean_read_delay : float;
  mean_write_delay_added : float;
  mean_op_delay : float;
  retransmissions : int;
  renewals_sent : int;
  approvals_answered : int;
  net_sent : int;
  net_dropped_loss : int;
  net_dropped_partition : int;
  net_dropped_down : int;
  oracle_reads : int;
  oracle_violations : int;
  staleness : Stats.Histogram.t;
}

let with_messages (tallies : Messages.tally array) m =
  let sum count = Array.fold_left (fun acc tally -> acc + count tally) 0 tallies in
  let ext = sum (fun t -> t.Messages.extension) and app = sum (fun t -> t.Messages.approval) in
  let inst = sum (fun t -> t.Messages.installed) in
  let wt = sum (fun t -> t.Messages.write_transfer) in
  {
    m with
    msgs_extension = ext;
    msgs_approval = app;
    msgs_installed = inst;
    msgs_write_transfer = wt;
    consistency_msgs = ext + app + inst;
    server_total_msgs = ext + app + inst + wt;
  }

let pp ppf m =
  Format.fprintf ppf
    "@[<v>simulated            %.1f s@,\
     ops issued           %d (dropped %d, temporary %d)@,\
     reads completed      %d (hits %d, misses %d, hit ratio %.3f)@,\
     writes completed     %d (commits %d)@,\
     consistency msgs     %d (ext %d, approval %d, installed %d) = %.3f/s@,\
     write-transfer msgs  %d; server total %d@,\
     callbacks sent       %d; approvals answered %d@,\
     retransmissions      %d; anticipatory renewals %d@,\
     read latency         %a@,\
     write latency        %a@,\
     server write wait    %a@,\
     mean read delay      %.6f s@,\
     mean added write delay %.6f s@,\
     mean op delay        %.6f s@,\
     wal records          %d@,\
     net sent %d, dropped: loss %d, partition %d, down %d@,\
     oracle               %d reads checked, %d violations@]"
    m.sim_duration m.ops_issued m.dropped_ops m.temp_ops m.reads_completed m.cache_hits
    m.cache_misses m.hit_ratio m.writes_completed m.commits m.consistency_msgs m.msgs_extension
    m.msgs_approval m.msgs_installed m.consistency_msg_rate m.msgs_write_transfer
    m.server_total_msgs m.callbacks_sent m.approvals_answered m.retransmissions m.renewals_sent
    Stats.Histogram.pp m.read_latency Stats.Histogram.pp m.write_latency Stats.Histogram.pp
    m.write_wait m.mean_read_delay m.mean_write_delay_added m.mean_op_delay m.wal_io m.net_sent
    m.net_dropped_loss m.net_dropped_partition m.net_dropped_down m.oracle_reads
    m.oracle_violations

let histogram_json h =
  let q p = Stats.Histogram.quantile h p in
  Trace.Json.Obj
    [
      ("count", Trace.Json.Num (float_of_int (Stats.Histogram.count h)));
      ("mean", Trace.Json.Num (Stats.Histogram.mean h));
      ("p50", Trace.Json.Num (q 0.5));
      ("p90", Trace.Json.Num (q 0.9));
      ("p99", Trace.Json.Num (q 0.99));
      ("max", Trace.Json.Num (q 1.0));
    ]

let to_json m =
  let i name v = (name, Trace.Json.Num (float_of_int v)) in
  let f name v = (name, Trace.Json.Num v) in
  Trace.Json.to_string
    (Trace.Json.Obj
       [
         ("schema", Trace.Json.Str "leases-metrics/1");
         f "sim_duration" m.sim_duration;
         i "ops_issued" m.ops_issued;
         i "reads_completed" m.reads_completed;
         i "writes_completed" m.writes_completed;
         i "temp_ops" m.temp_ops;
         i "dropped_ops" m.dropped_ops;
         i "cache_hits" m.cache_hits;
         i "cache_misses" m.cache_misses;
         f "hit_ratio" m.hit_ratio;
         i "msgs_extension" m.msgs_extension;
         i "msgs_approval" m.msgs_approval;
         i "msgs_installed" m.msgs_installed;
         i "msgs_write_transfer" m.msgs_write_transfer;
         i "consistency_msgs" m.consistency_msgs;
         i "server_total_msgs" m.server_total_msgs;
         f "consistency_msg_rate" m.consistency_msg_rate;
         i "callbacks_sent" m.callbacks_sent;
         i "commits" m.commits;
         i "wal_io" m.wal_io;
         ("read_latency", histogram_json m.read_latency);
         ("write_latency", histogram_json m.write_latency);
         ("write_wait", histogram_json m.write_wait);
         f "mean_read_delay" m.mean_read_delay;
         f "mean_write_delay_added" m.mean_write_delay_added;
         f "mean_op_delay" m.mean_op_delay;
         i "retransmissions" m.retransmissions;
         i "renewals_sent" m.renewals_sent;
         i "approvals_answered" m.approvals_answered;
         i "net_sent" m.net_sent;
         i "net_dropped_loss" m.net_dropped_loss;
         i "net_dropped_partition" m.net_dropped_partition;
         i "net_dropped_down" m.net_dropped_down;
         i "oracle_reads" m.oracle_reads;
         i "oracle_violations" m.oracle_violations;
         ("staleness", histogram_json m.staleness);
       ])

let pp_brief ppf m =
  Format.fprintf ppf
    "ops=%d hit=%.3f cons=%.3f/s read_delay=%.2fms write_delay=%.2fms violations=%d"
    m.ops_issued m.hit_ratio m.consistency_msg_rate (m.mean_read_delay *. 1000.)
    (m.mean_write_delay_added *. 1000.) m.oracle_violations
