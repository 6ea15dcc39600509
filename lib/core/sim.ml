open Simtime

include Cluster.Faults

type world = {
  fabric : Messages.payload Cluster.fabric;
  servers : Server.t array;
  route : Vstore.File_id.t -> int;
  clients : Client.t array;
  store : Vstore.Store.t;
  oracle : Oracle.Register_oracle.t;
  mutable on_read : Vstore.File_id.t -> Client.read_result -> unit;
  mutable on_write : Vstore.File_id.t -> Client.write_result -> unit;
}

type setup = {
  seed : int64;
  n_clients : int;
  config : Config.t;
  m_prop : Time.Span.t;
  m_proc : Time.Span.t;
  loss : float;
  faults : fault list;
  drain : Time.Span.t;
  tracer : Trace.Sink.t;
  profiler : Profile.Recorder.t;
  on_instruments : world -> Cluster.tally -> unit;
}

let default_setup =
  {
    seed = 1L;
    n_clients = 1;
    config = Config.default;
    m_prop = Time.Span.of_ms 0.5;
    m_proc = Time.Span.of_ms 1.;
    loss = 0.;
    faults = [];
    drain = Time.Span.of_sec 120.;
    tracer = Trace.Sink.null;
    profiler = Profile.Recorder.null;
    on_instruments = (fun _ _ -> ());
  }

type outcome = {
  metrics : Metrics.t;
  oracle : Oracle.Register_oracle.t;
  store : Vstore.Store.t;
}

(* --- lease worlds --------------------------------------------------- *)

let world setup ~rng ~servers ~client_host ?route ?req_origin () =
  let fabric =
    Cluster.fabric ~tracer:setup.tracer ~profiler:setup.profiler
      ~classify:Messages.trace_class ~rng ~loss:setup.loss ~m_prop:setup.m_prop
      ~m_proc:setup.m_proc ()
  in
  let { Cluster.engine; net; liveness; tracer; _ } = fabric in
  let store = Vstore.Store.create () in
  let client_hosts = List.init setup.n_clients client_host in
  let server_hosts = Array.map fst servers in
  let server_objs =
    Array.map
      (fun (host, config) ->
        Server.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host
          ~clients:client_hosts ~store ~config ~tracer ())
      servers
  in
  let clients =
    (* Split after the net's draw so adding per-client jitter streams never
       perturbs the loss stream of existing seeds. *)
    Array.init setup.n_clients (fun i ->
        let host = client_host i in
        Client.create ~clock:(Clock.create engine ()) ~net ~liveness ~host
          ~server:server_hosts.(0)
          ?route:(Option.map (fun route file -> server_hosts.(route file)) route)
          ~rng:(Prng.Splitmix.split rng) ~config:setup.config
          ~tracer
          ?req_origin:(Option.map (fun origin -> origin host) req_origin)
          ())
  in
  {
    fabric;
    servers = server_objs;
    route = Option.value route ~default:(fun _ -> 0);
    clients;
    store;
    oracle = Oracle.Register_oracle.create ~store;
    on_read = (fun _ _ -> ());
    on_write = (fun _ _ -> ());
  }

let schedule_faults w ~server_of_shard ~trace_clients faults =
  Cluster.schedule_faults w.fabric
    {
      Cluster.client = (fun i -> (Client.host w.clients.(i), Some (Client.clock w.clients.(i))));
      server =
        (fun shard ->
          Option.map
            (fun s -> (Server.host w.servers.(s), Some (Server.clock w.servers.(s))))
            (server_of_shard shard));
      trace_clients;
    }
    faults

let drive w trace =
  Cluster.drive w.fabric ~oracle:w.oracle
    ~read:(fun t ~client file ~start ->
      Client.read w.clients.(client) file ~k:(fun r ->
          Cluster.read_done t ~file ~start r.Client.r_version r.Client.r_latency;
          w.on_read file r))
    ~write:(fun t ~client file ~start:_ ->
      Client.write w.clients.(client) file ~k:(fun r ->
          Cluster.write_done t r.Client.w_latency;
          w.on_write file r))
    trace

(* Client counters summed over the clients, server counters over whatever
   servers the world runs. *)
let metrics w tally =
  let clients f = Array.fold_left (fun acc c -> acc + f c) 0 w.clients in
  let servers f = Array.fold_left (fun acc s -> acc + f s) 0 w.servers in
  let write_wait = Stats.Histogram.create () in
  Array.iter (fun s -> Stats.Histogram.merge write_wait (Server.write_wait s)) w.servers;
  Cluster.metrics w.fabric tally (fun m ->
      {
        (Metrics.with_messages (Array.map Server.messages w.servers) m) with
        Metrics.cache_hits = clients Client.hits;
        cache_misses = clients Client.misses;
        callbacks_sent = servers Server.callbacks_sent;
        commits = servers Server.commits;
        wal_io = servers (fun s -> Vstore.Wal.io_records (Server.wal s));
        write_wait;
        retransmissions = clients Client.retransmissions;
        renewals_sent = clients Client.renewals_sent;
        approvals_answered = clients Client.approvals_answered;
      })

let run_world setup ~rng ~servers ~client_host ?route ?req_origin ~server_of_shard ~trace_clients
    ~until trace =
  let w = world setup ~rng ~servers ~client_host ?route ?req_origin () in
  schedule_faults w ~server_of_shard ~trace_clients setup.faults;
  let tally = drive w trace in
  setup.on_instruments w tally;
  Cluster.run w.fabric ~until;
  (w, metrics w tally)

(* --- the single-server harness -------------------------------------- *)

let run setup ~trace =
  Cluster.check ~who:"Sim.run" ~n_clients:setup.n_clients setup.faults trace;
  let w, metrics =
    run_world setup
      ~rng:(Prng.Splitmix.create ~seed:setup.seed)
      ~servers:[| (Cluster.server_host, setup.config) |]
      ~client_host:Cluster.client_host
      (* one server: every shard index names it *)
      ~server_of_shard:(fun _ -> Some 0)
      ~trace_clients:true
      ~until:(Cluster.horizon trace ~drain:setup.drain)
      trace
  in
  { metrics; oracle = w.oracle; store = w.store }
