open Simtime

type row = {
  name : string;
  mean_write_ms : float;
  p99_write_ms : float;
  consistency_per_s : float;
  server_msgs : int;
  commits : int;
  violations : int;
  writes_lost : int;
}

type result = { rows : row list; table : string }

(* Each client rewrites a small set of its own files at 0.5 writes/s and
   reads them back between writes. *)
let rewrite_trace ~clients ~duration ~seed =
  let rng = Prng.Splitmix.create ~seed in
  let horizon = Time.Span.to_sec duration in
  let ops =
    List.concat
      (List.init clients (fun client ->
           let rng = Prng.Splitmix.split rng in
           let rec go acc t =
             let t = t +. Prng.Dist.exponential rng ~mean:1.33 in
             if t > horizon then acc
             else begin
               let file = Vstore.File_id.of_int ((client * 4) + Prng.Splitmix.int rng ~bound:4) in
               let kind =
                 if Prng.Splitmix.bool rng ~p:0.4 then Workload.Op.Write else Workload.Op.Read
               in
               go ({ Workload.Op.at = Time.of_sec t; client; kind; file; temporary = false } :: acc)
                 t
             end
           in
           go [] 0.))
  in
  Workload.Trace.of_ops ops

(* Two clients take strict turns writing one file. *)
let ping_pong_trace ~duration =
  let horizon = Time.Span.to_sec duration in
  let file = Vstore.File_id.of_int 0 in
  let rec go acc t turn =
    if t > horizon then acc
    else
      go
        ({ Workload.Op.at = Time.of_sec t; client = turn; kind = Workload.Op.Write; file;
           temporary = false }
        :: acc)
        (t +. 2.) (1 - turn)
  in
  Workload.Trace.of_ops (go [] 1. 0)

let row name (m : Leases.Metrics.t) ~writes_lost =
  {
    name;
    mean_write_ms = 1000. *. Stats.Histogram.mean m.write_latency;
    p99_write_ms = 1000. *. Stats.Histogram.quantile m.write_latency 0.99;
    consistency_per_s = m.consistency_msg_rate;
    server_msgs = m.server_total_msgs;
    commits = m.commits;
    violations = m.oracle_violations;
    writes_lost;
  }

(* Both protocols run from one setup: the default 10 s term, which is also
   the write lease's. *)
let setup clients = { Leases.Sim.default_setup with Leases.Sim.n_clients = clients }

let wt_row name trace ~clients =
  row name (Leases.Sim.run (setup clients) ~trace).Leases.Sim.metrics ~writes_lost:0

let wb_row name trace ~clients =
  let o = Wlease.Wsim.run (setup clients) ~trace in
  row name o.Wlease.Wsim.metrics ~writes_lost:o.Wlease.Wsim.writes_lost

let run ?(duration = Time.Span.of_sec 2_000.) () =
  let clients = 4 in
  let rewrite = rewrite_trace ~clients ~duration ~seed:83L in
  let pp = ping_pong_trace ~duration in
  let rows =
    [
      wt_row "rewrite: write-through leases" rewrite ~clients;
      wb_row "rewrite: write-back leases" rewrite ~clients;
      wt_row "ping-pong: write-through leases" pp ~clients:2;
      wb_row "ping-pong: write-back leases" pp ~clients:2;
    ]
  in
  let table =
    Stats.Table.render
      ~header:
        [ "scenario"; "write ms (mean)"; "write ms (p99)"; "cons/s"; "server msgs"; "commits";
          "stale"; "lost" ]
      ~rows:
        (List.map
           (fun r ->
             [
               r.name;
               Printf.sprintf "%.2f" r.mean_write_ms;
               Printf.sprintf "%.2f" r.p99_write_ms;
               Printf.sprintf "%.3f" r.consistency_per_s;
               string_of_int r.server_msgs;
               string_of_int r.commits;
               string_of_int r.violations;
               string_of_int r.writes_lost;
             ])
           rows)
  in
  { rows; table }
