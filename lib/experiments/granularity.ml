open Simtime

type row = {
  files_per_volume : int;
  lease_units : int;
  consistency_per_s : float;
  approvals : int;
  callbacks : int;
  hit_ratio : float;
  mean_write_wait_ms : float;
  violations : int;
}

type result = { rows : row list; table : string }

(* Coarsen a trace: every file id maps to its volume's id (the lowest file
   id in the group).  Leases, approvals and versions then operate on
   volumes; the oracle's single-copy check remains sound because the
   mapped trace is itself a legitimate workload over volume-objects. *)
let coarsen ~files_per_volume trace =
  Workload.Trace.remap trace ~f:(fun (op : Workload.Op.t) ->
      let id = Vstore.File_id.to_int op.file in
      { op with file = Vstore.File_id.of_int (id - (id mod files_per_volume)) })

let run ?(duration = Time.Span.of_sec 3_000.) ?(clients = 6) () =
  let { V_trace.trace; fileset = _ } = V_trace.poisson ~seed:97L ~clients ~duration () in
  let rows =
    List.map
      (fun files_per_volume ->
        let mapped = if files_per_volume = 1 then trace else coarsen ~files_per_volume trace in
        let setup =
          Runner.lease_setup ~n_clients:clients ~term:(Analytic.Model.Finite 10.) ()
        in
        let m = Runner.run_lease setup mapped in
        {
          files_per_volume;
          lease_units = (Workload.Trace.summarize mapped).Workload.Trace.files;
          consistency_per_s = m.Leases.Metrics.consistency_msg_rate;
          approvals = m.Leases.Metrics.msgs_approval;
          callbacks = m.Leases.Metrics.callbacks_sent;
          hit_ratio = m.Leases.Metrics.hit_ratio;
          mean_write_wait_ms = 1000. *. Stats.Histogram.mean m.Leases.Metrics.write_wait;
          violations = m.Leases.Metrics.oracle_violations;
        })
      [ 1; 4; 16; 64 ]
  in
  let table =
    Stats.Table.render
      ~header:
        [ "files/volume"; "lease units"; "cons/s"; "approvals"; "callbacks"; "hit";
          "wwait(ms)"; "viol" ]
      ~rows:
        (List.map
           (fun r ->
             [
               string_of_int r.files_per_volume;
               string_of_int r.lease_units;
               Printf.sprintf "%.3f" r.consistency_per_s;
               string_of_int r.approvals;
               string_of_int r.callbacks;
               Printf.sprintf "%.3f" r.hit_ratio;
               Printf.sprintf "%.2f" r.mean_write_wait_ms;
               string_of_int r.violations;
             ])
           rows)
  in
  { rows; table }
