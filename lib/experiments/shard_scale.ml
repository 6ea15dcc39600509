(* Scale experiment: client count x shard count, per-server consistency load.

   Partitioning the namespace across K lease servers divides each server's
   consistency traffic.  How closely the division tracks 1/K depends on
   extension amortization: §3.1's extension term is 2·N·r/(1 + r·t_C), and
   the denominator is reads sharing one renewal.  With r·t_C << 1 (short
   term, V read rates) renewals are per-read, so per-server load falls as
   ~1/K — the main grid below runs there.  At the paper's 10 s term
   renewals amortize heavily and the model itself predicts per-server load
   (1/K)·(1 + r·t_C)/(1 + r·t_C/K) — well above 1/K; the contrast table
   shows the simulator reproducing exactly that, with every shard's
   measured load matching the model evaluated at the shard's own rates. *)

open Simtime

type row = {
  clients : int;
  shards : int;
  total_per_s : float;  (** cluster-wide consistency messages per second *)
  per_server_per_s : float;  (** mean over the shard servers *)
  rel_per_server : float;
      (** mean per-server rate over the same-client-count 1-shard rate *)
  worst_steady_residual : float;
      (** per-shard §3.1 steady residual of largest magnitude, signed *)
  violations : int;
}

type result = {
  term_s : float;  (** term of the main (unsaturated) grid *)
  rows : row list;  (** client x shard grid at [term_s] *)
  amortized_term_s : float;
  rows_amortized : row list;  (** one client count at the paper's term *)
  series : Stats.Series.t list;
  table : string;
  table_amortized : string;
  note : string;
}

let sweep ~term_s ~duration ~client_counts ~shard_counts =
  let config =
    Leases.Config.with_term Leases.Config.default (Leases.Lease.term_of_sec term_s)
  in
  List.concat_map
    (fun clients ->
      let trace = (V_trace.poisson ~clients ~duration ()).V_trace.trace in
      let baseline = ref nan in
      List.map
        (fun n_shards ->
          let setup =
            {
              Shard.Deploy.default_setup with
              Shard.Deploy.n_clients = clients;
              n_shards;
              config;
              telemetry_interval_s = Some 30.;
            }
          in
          let outcome = Shard.Deploy.run setup ~trace in
          let total =
            Array.fold_left
              (fun acc sl -> acc +. sl.Shard.Deploy.sl_consistency_rate)
              0. outcome.Shard.Deploy.per_shard
          in
          let per_server = total /. float_of_int n_shards in
          if n_shards = 1 then baseline := per_server;
          let worst_steady_residual =
            Array.fold_left
              (fun worst (summary : Telemetry.Residual.summary) ->
                let s = summary.steady_load_residual in
                if Float.abs s > Float.abs worst then s else worst)
              0.
              (Shard.Deploy.telemetry_report setup (Option.get outcome.Shard.Deploy.telemetry))
          in
          {
            clients;
            shards = n_shards;
            total_per_s = total;
            per_server_per_s = per_server;
            rel_per_server = per_server /. !baseline;
            worst_steady_residual;
            violations = outcome.Shard.Deploy.metrics.Leases.Metrics.oracle_violations;
          })
        shard_counts)
    client_counts

let render rows =
  Stats.Table.render
    ~header:
      [ "clients"; "shards"; "total msg/s"; "per-server msg/s"; "vs 1 shard"; "ideal 1/K";
        "worst shard residual"; "viol" ]
    ~rows:
      (List.map
         (fun r ->
           [
             string_of_int r.clients;
             string_of_int r.shards;
             Printf.sprintf "%.3f" r.total_per_s;
             Printf.sprintf "%.3f" r.per_server_per_s;
             Printf.sprintf "%.3fx" r.rel_per_server;
             Printf.sprintf "%.3fx" (1. /. float_of_int r.shards);
             Printf.sprintf "%+.1f%%" (100. *. r.worst_steady_residual);
             string_of_int r.violations;
           ])
         rows)

let run ?(duration = Time.Span.of_sec 2_000.) ?(client_counts = [ 6; 12; 24 ])
    ?(shard_counts = [ 1; 2; 4; 8 ]) () =
  let term_s = 0.5 and amortized_term_s = 10. in
  let rows = sweep ~term_s ~duration ~client_counts ~shard_counts in
  let rows_amortized =
    sweep ~term_s:amortized_term_s ~duration ~client_counts:[ 12 ] ~shard_counts
  in
  let series =
    List.map
      (fun clients ->
        let s = Stats.Series.create ~label:(Printf.sprintf "C=%d per-server (msg/s)" clients) in
        List.iter
          (fun r ->
            if r.clients = clients then
              Stats.Series.add s ~x:(float_of_int r.shards) ~y:r.per_server_per_s)
          rows;
        s)
      client_counts
  in
  let worst_scaling =
    List.fold_left
      (fun acc r ->
        Float.max acc (Float.abs ((r.rel_per_server *. float_of_int r.shards) -. 1.)))
      0. rows
  in
  let note =
    Printf.sprintf
      "unsaturated regime (%.1f s term): per-server consistency load falls as ~1/K, worst \
       deviation of rel x K from 1 is %.1f%% over the %d-point grid; at the paper's %.0f s \
       term renewal amortization sets a higher floor — (1/K)(1 + r·t_C)/(1 + r·t_C/K) — and \
       the contrast table's per-shard residuals show the measured loads matching that \
       prediction"
      term_s (100. *. worst_scaling) (List.length rows) amortized_term_s
  in
  {
    term_s;
    rows;
    amortized_term_s;
    rows_amortized;
    series;
    table = render rows;
    table_amortized = render rows_amortized;
    note;
  }
