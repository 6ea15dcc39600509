open Simtime

type row = {
  label : string;
  read_rate : float;
  rtt_ms : float;
  rel_load_10s_model : float;
  rel_load_10s_sim : float;
  delay_ms_model : float;
  delay_ms_sim : float;
}

type result = { rows : row list; table : string }

let t10 = Analytic.Model.Finite 10.

let run ?(duration = Time.Span.of_sec 5_000.) () =
  let configurations =
    [
      ("V 1989 (LAN)", 1., 5.);
      ("10x CPU (LAN)", 10., 5.);
      ("V 1989 (WAN)", 1., 100.);
      ("10x CPU (WAN)", 10., 100.);
    ]
  in
  let rows =
    List.map
      (fun (label, speedup, rtt_ms) ->
        let base = Analytic.Params.v_lan in
        let params =
          Analytic.Params.with_rtt
            {
              base with
              Analytic.Params.read_rate = base.Analytic.Params.read_rate *. speedup;
              write_rate = base.Analytic.Params.write_rate *. speedup;
            }
            (rtt_ms /. 1000.)
        in
        let m_proc = Time.Span.of_ms 1. in
        let m_prop = Time.Span.of_ms ((rtt_ms -. 4.) /. 2.) in
        let trace =
          (V_trace.poisson ~seed:37L ~duration ()).V_trace.trace
          |> fun trace ->
          if speedup = 1. then trace
          else
            (* a faster processor issues the same logical work in less
               time: compress the trace's time axis *)
            Workload.Trace.remap trace ~f:(fun (op : Workload.Op.t) ->
                { op with at = Time.of_sec (Time.to_sec op.at /. speedup) })
        in
        let sim term =
          Runner.run_lease (Runner.lease_setup ~m_prop ~m_proc ~term ()) trace
        in
        let sim_zero = (sim (Analytic.Model.Finite 0.)).Leases.Metrics.consistency_msg_rate in
        let sim_10 = sim t10 in
        let rel_sim =
          if sim_zero = 0. then nan
          else sim_10.Leases.Metrics.consistency_msg_rate /. sim_zero
        in
        {
          label;
          read_rate = params.Analytic.Params.read_rate;
          rtt_ms;
          rel_load_10s_model = Analytic.Model.relative_load params t10;
          rel_load_10s_sim = rel_sim;
          delay_ms_model = 1000. *. Analytic.Model.consistency_delay params t10;
          delay_ms_sim = 1000. *. sim_10.Leases.Metrics.mean_op_delay;
        })
      configurations
  in
  let table =
    Stats.Table.render
      ~header:
        [ "configuration"; "R/s"; "RTT(ms)"; "rel load@10s (model)"; "(sim)";
          "delay@10s ms (model)"; "(sim)" ]
      ~rows:
        (List.map
           (fun r ->
             [
               r.label;
               Printf.sprintf "%.2f" r.read_rate;
               Printf.sprintf "%g" r.rtt_ms;
               Printf.sprintf "%.3f" r.rel_load_10s_model;
               Printf.sprintf "%.3f" r.rel_load_10s_sim;
               Printf.sprintf "%.2f" r.delay_ms_model;
               Printf.sprintf "%.2f" r.delay_ms_sim;
             ])
           rows)
  in
  { rows; table }
