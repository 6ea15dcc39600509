type result = { table : string; measured : Workload.Trace.summary }

let run ?(duration = Simtime.Time.Span.of_sec 20_000.) () =
  let { V_trace.trace; fileset } = V_trace.bursty ~duration () in
  let measured = Workload.Trace.summarize trace in
  let p = Analytic.Params.v_lan in
  let installed_reads = ref 0 and total_reads = ref 0 in
  for i = 0 to Workload.Trace.length trace - 1 do
    match Workload.Trace.kind trace i with
    | Workload.Op.Read when not (Workload.Trace.temporary trace i) -> (
      incr total_reads;
      match Workload.Fileset.class_of fileset (Workload.Trace.file trace i) with
      | Workload.Fileset.Installed -> incr installed_reads
      | Workload.Fileset.Shared | Workload.Fileset.Private _ | Workload.Fileset.Temporary _ -> ())
    | Workload.Op.Read | Workload.Op.Write -> ()
  done;
  let installed_reads = !installed_reads and total_reads = !total_reads in
  let installed_share =
    if total_reads = 0 then 0. else float_of_int installed_reads /. float_of_int total_reads
  in
  let rows =
    [
      [ "N (clients)"; string_of_int p.Analytic.Params.n_clients; string_of_int measured.Workload.Trace.clients ];
      [ "R (reads/s/client)"; Printf.sprintf "%.3f" p.Analytic.Params.read_rate;
        Printf.sprintf "%.3f" measured.Workload.Trace.read_rate_per_client ];
      [ "W (writes/s/client)"; Printf.sprintf "%.3f" p.Analytic.Params.write_rate;
        Printf.sprintf "%.3f" measured.Workload.Trace.write_rate_per_client ];
      [ "read:write ratio"; Printf.sprintf "%.1f" (p.Analytic.Params.read_rate /. p.Analytic.Params.write_rate);
        Printf.sprintf "%.1f" measured.Workload.Trace.read_write_ratio ];
      [ "installed share of reads"; "~0.5 (\"almost half\")"; Printf.sprintf "%.2f" installed_share ];
      [ "m_prop"; Printf.sprintf "%.4g s" p.Analytic.Params.m_prop; "(configured)" ];
      [ "m_proc"; Printf.sprintf "%.4g s" p.Analytic.Params.m_proc; "(configured)" ];
      [ "epsilon (clock skew)"; Printf.sprintf "%.4g s" p.Analytic.Params.epsilon; "(configured)" ];
      [ "unicast RTT"; Printf.sprintf "%.4g s" (Analytic.Params.unicast_rtt p); "(derived)" ];
    ]
  in
  let table = Stats.Table.render ~header:[ "parameter"; "paper / target"; "measured" ] ~rows in
  { table; measured }
