open Simtime

type row = { name : string; metrics : Leases.Metrics.t }

type result = { rows : row list; partition_rows : row list; table : string }

(* One setup per term: the 10 s one also carries callbacks (which read no
   term) and TTL hints (whose TTL it is). *)
let protocols ~clients ~faults =
  let setup term = { (Runner.lease_setup ~n_clients:clients ~term ()) with Leases.Sim.faults } in
  let ten_s = setup (Analytic.Model.Finite 10.) in
  [
    ("leases (10 s)", Runner.run_lease ten_s);
    (* check-on-use is exactly a lease of term zero *)
    ("polling (check-on-use)", Runner.run_lease (setup (Analytic.Model.Finite 0.)));
    ( "callbacks (AFS)",
      fun trace ->
        (Baselines.Callback.run ~poll_period:(Time.Span.of_sec 120.) ten_s ~trace)
          .Leases.Sim.metrics );
    ("TTL hints (10 s)", fun trace -> (Baselines.Ttl_hints.run ten_s ~trace).Leases.Sim.metrics);
  ]

let run ?(duration = Time.Span.of_sec 3_000.) ?(clients = 5) () =
  let { V_trace.trace; fileset = _ } = V_trace.shared_heavy ~seed:23L ~clients ~duration () in
  let fault_free = protocols ~clients ~faults:[] in
  let rows = List.map (fun (name, f) -> { name; metrics = f trace }) fault_free in
  let partition_faults =
    [ Leases.Sim.Partition_clients
        {
          clients = [ 0 ];
          at = Time.add Time.zero (Time.Span.scale 0.4 duration);
          duration = Time.Span.of_sec 120.;
        } ]
  in
  let partitioned = protocols ~clients ~faults:partition_faults in
  let partition_rows =
    List.map (fun (name, f) -> { name = name ^ " +partition"; metrics = f trace }) partitioned
  in
  let fmt_row r =
    let m = r.metrics in
    [
      r.name;
      Printf.sprintf "%.3f" m.Leases.Metrics.consistency_msg_rate;
      Printf.sprintf "%.3f" m.Leases.Metrics.hit_ratio;
      Printf.sprintf "%.2f" (1000. *. m.Leases.Metrics.mean_read_delay);
      Printf.sprintf "%.2f" (1000. *. m.Leases.Metrics.mean_write_delay_added);
      string_of_int m.Leases.Metrics.oracle_violations;
      Printf.sprintf "%.1f" (Stats.Histogram.quantile m.Leases.Metrics.staleness 0.99);
    ]
  in
  let table =
    Stats.Table.render
      ~header:[ "protocol"; "cons/s"; "hit"; "read(ms)"; "+write(ms)"; "stale"; "stale p99(s)" ]
      ~rows:(List.map fmt_row (rows @ partition_rows))
  in
  { rows; partition_rows; table }
