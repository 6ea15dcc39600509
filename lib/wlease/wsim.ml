type outcome = {
  metrics : Leases.Metrics.t;
  oracle : Oracle.Register_oracle.t;
  store : Vstore.Store.t;
  dirty_reads : int;
  writes_lost : int;
  flushes_accepted : int;
  flushes_rejected : int;
}

let run (setup : Leases.Sim.setup) ~trace =
  let term =
    match setup.config.term_policy with
    | Leases.Term_policy.Fixed span -> span
    | (Zero | Infinite | Adaptive _) as policy ->
      invalid_arg
        (Format.asprintf "Wsim.run: a write lease's term is the config's fixed term, not %a"
           Leases.Term_policy.pp policy)
  in
  Leases.Cluster.check ~who:"Wsim.run" ~n_clients:setup.n_clients setup.faults trace;
  let w =
    Leases.Cluster.fabric ~tracer:setup.tracer ~profiler:setup.profiler
      ~rng:(Prng.Splitmix.create ~seed:setup.seed)
      ~loss:setup.loss ~m_prop:setup.m_prop ~m_proc:setup.m_proc ()
  in
  let { Leases.Cluster.engine; net; liveness; _ } = w in
  let store = Vstore.Store.create () in
  let server_clock = Clock.create engine () in
  let server =
    Wserver.create ~engine ~clock:server_clock ~net ~liveness ~host:Leases.Cluster.server_host
      ~store ~term ()
  in
  let client_clocks = Array.init setup.n_clients (fun _ -> Clock.create engine ()) in
  let clients =
    Array.init setup.n_clients (fun i ->
        Wclient.create ~engine ~clock:client_clocks.(i) ~net ~liveness
          ~host:(Leases.Cluster.client_host i) ~server:Leases.Cluster.server_host
          ~skew_allowance:setup.config.skew_allowance ())
  in
  let oracle = Oracle.Register_oracle.create ~store in
  Leases.Cluster.schedule_faults w
    (Leases.Cluster.one_server ~clocks:(server_clock, Array.get client_clocks) ())
    setup.faults;
  let tally =
    Leases.Cluster.drive w ~oracle
      ~read:(fun t ~client file ~start ->
        Wclient.read clients.(client) file ~k:(fun r ->
            if r.Wclient.r_dirty then Leases.Cluster.dirty_read_done t r.Wclient.r_latency
            else Leases.Cluster.read_done t ~file ~start r.Wclient.r_version r.Wclient.r_latency))
      ~write:(fun t ~client file ~start:_ ->
        Wclient.write clients.(client) file ~k:(fun r ->
            Leases.Cluster.write_done t r.Wclient.w_latency))
      trace
  in
  Leases.Cluster.run w ~until:(Leases.Cluster.horizon trace ~drain:setup.drain);
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 clients in
  let metrics =
    Leases.Cluster.metrics ~write_over_rtt:false w tally (fun m ->
        {
          (Leases.Metrics.with_messages [| Wserver.messages server |] m) with
          Leases.Metrics.cache_hits = sum Wclient.hits;
          cache_misses = sum Wclient.misses;
          callbacks_sent = Wserver.recalls_sent server;
          commits = Wserver.commits server;
          write_wait = Wserver.grant_wait server;
          retransmissions = sum Wclient.retransmissions;
          renewals_sent = sum Wclient.flushes_sent;
          approvals_answered = sum Wclient.recalls_answered;
        })
  in
  {
    metrics;
    oracle;
    store;
    (* every clean read, and only those, went to the oracle *)
    dirty_reads = Leases.Metrics.(metrics.reads_completed - metrics.oracle_reads);
    writes_lost = sum Wclient.writes_lost;
    flushes_accepted = Wserver.flushes_accepted server;
    flushes_rejected = Wserver.flushes_rejected server;
  }
