open Simtime

type row = { name : string; metrics : Leases.Metrics.t }

type result = { rows : row list; table : string }

let run ?(duration = Time.Span.of_sec 3_000.) ?(clients = 8) () =
  let { V_trace.trace; fileset } = V_trace.bursty ~seed:17L ~clients ~duration () in
  let term = Leases.Lease.term_of_sec 10. in
  let base = Leases.Config.with_term Leases.Config.default term in
  let installed_files =
    List.init (Workload.Fileset.installed fileset) (Workload.Fileset.installed_id fileset)
  in
  let configs =
    [
      ("on-demand", { base with Leases.Config.batch_extensions = false });
      ("batched (default)", base);
      ( "anticipatory (2 s lead)",
        { base with Leases.Config.anticipatory_renewal = Some (Time.Span.of_sec 2.) } );
      ( "installed multicast",
        {
          base with
          Leases.Config.installed =
            Some
              {
                Leases.Config.files = installed_files;
                period = Time.Span.of_sec 5.;
                term = Time.Span.of_sec 12.;
              };
        } );
      ("unicast approvals", { base with Leases.Config.approval_multicast = false });
      ("wait-only writes (DFS-style)", { base with Leases.Config.callback_on_write = false });
    ]
  in
  let rows =
    List.map
      (fun (name, config) ->
        let setup =
          Runner.lease_setup ~n_clients:clients ~config ~term:(Analytic.Model.Finite 10.) ()
        in
        { name; metrics = Runner.run_lease setup trace })
      configs
  in
  let fmt_row r =
    let m = r.metrics in
    [
      r.name;
      Printf.sprintf "%.3f" m.Leases.Metrics.consistency_msg_rate;
      string_of_int m.Leases.Metrics.msgs_extension;
      string_of_int m.Leases.Metrics.msgs_approval;
      string_of_int m.Leases.Metrics.msgs_installed;
      Printf.sprintf "%.3f" m.Leases.Metrics.hit_ratio;
      Printf.sprintf "%.2f" (1000. *. m.Leases.Metrics.mean_read_delay);
      Printf.sprintf "%.1f" (1000. *. Stats.Histogram.mean m.Leases.Metrics.write_wait);
      Printf.sprintf "%.1f" (1000. *. Stats.Histogram.quantile m.Leases.Metrics.write_wait 0.99);
      string_of_int m.Leases.Metrics.renewals_sent;
      string_of_int m.Leases.Metrics.oracle_violations;
    ]
  in
  let table =
    Stats.Table.render
      ~header:
        [ "configuration"; "cons/s"; "ext"; "appr"; "inst"; "hit"; "read(ms)"; "wwait(ms)";
          "wwait p99"; "renewals"; "viol" ]
      ~rows:(List.map fmt_row rows)
  in
  { rows; table }
