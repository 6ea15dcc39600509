open Simtime

type row = {
  policy : string;
  consistency_per_s : float;
  hit_ratio : float;
  mean_write_wait_ms : float;
  p99_write_wait_ms : float;
  violations : int;
  dropped : int;
}

type result = { rows : row list; table : string }

(* A bimodal population: a widely read library (files 0-19, never written)
   and four write-hot shared files (20-23). *)
let bimodal_trace ~clients ~duration ~seed =
  let rng = Prng.Splitmix.create ~seed in
  let horizon = Time.Span.to_sec duration in
  let library = Prng.Dist.Zipf_table.create ~n:20 ~s:0.8 in
  let ops =
    List.concat
      (List.init clients (fun client ->
           let rng = Prng.Splitmix.split rng in
           let rec go acc t =
             let t = t +. Prng.Dist.exponential rng ~mean:1. in
             if t > horizon then acc
             else begin
               let op =
                 if Prng.Splitmix.bool rng ~p:0.75 then
                   (* library read, Zipf-popular *)
                   { Workload.Op.at = Time.of_sec t; client; kind = Workload.Op.Read;
                     file = Vstore.File_id.of_int (Prng.Dist.Zipf_table.draw library rng);
                     temporary = false }
                 else begin
                   let hot = Vstore.File_id.of_int (20 + Prng.Splitmix.int rng ~bound:4) in
                   let kind =
                     if Prng.Splitmix.bool rng ~p:0.5 then Workload.Op.Write else Workload.Op.Read
                   in
                   { Workload.Op.at = Time.of_sec t; client; kind; file = hot; temporary = false }
                 end
               in
               go (op :: acc) t
             end
           in
           go [] 0.))
  in
  Workload.Trace.of_ops ops

let run ?(duration = Time.Span.of_sec 2_000.) ?(clients = 4) () =
  let trace = bimodal_trace ~clients ~duration ~seed:101L in
  let policies =
    [
      ("zero term", Leases.Term_policy.Zero);
      ("fixed 10 s", Leases.Term_policy.Fixed (Time.Span.of_sec 10.));
      ("infinite", Leases.Term_policy.Infinite);
      ("adaptive", Leases.Term_policy.Adaptive Leases.Term_policy.default_adaptive);
    ]
  in
  let rows =
    List.map
      (fun (name, term_policy) ->
        let config =
          {
            Leases.Config.default with
            Leases.Config.term_policy;
            (* wait-only writes: the cost of a wrong term is visible *)
            callback_on_write = false;
          }
        in
        let setup =
          {
            (Runner.lease_setup ~n_clients:clients ~config ~term:(Analytic.Model.Finite 10.) ())
            with
            Leases.Sim.config;
            drain = Time.Span.of_sec 300.;
          }
        in
        let m = Runner.run_lease setup trace in
        {
          policy = name;
          consistency_per_s = m.Leases.Metrics.consistency_msg_rate;
          hit_ratio = m.Leases.Metrics.hit_ratio;
          mean_write_wait_ms = 1000. *. Stats.Histogram.mean m.Leases.Metrics.write_wait;
          p99_write_wait_ms = 1000. *. Stats.Histogram.quantile m.Leases.Metrics.write_wait 0.99;
          violations = m.Leases.Metrics.oracle_violations;
          dropped = m.Leases.Metrics.dropped_ops;
        })
      policies
  in
  let table =
    Stats.Table.render
      ~header:[ "policy"; "cons/s"; "hit"; "wwait ms (mean)"; "wwait ms (p99)"; "viol"; "dropped" ]
      ~rows:
        (List.map
           (fun r ->
             [
               r.policy;
               Printf.sprintf "%.3f" r.consistency_per_s;
               Printf.sprintf "%.3f" r.hit_ratio;
               Printf.sprintf "%.1f" r.mean_write_wait_ms;
               Printf.sprintf "%.1f" r.p99_write_wait_ms;
               string_of_int r.violations;
               string_of_int r.dropped;
             ])
           rows)
  in
  { rows; table }
