open Simtime

include Cluster.Faults

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
  on_instruments : instruments -> unit;
}

and instruments = {
  i_engine : Engine.t;
  i_net : Messages.payload Netsim.Net.t;
  i_server : Server.t;
  i_clients : Client.t array;
  i_server_clock : Clock.t;
  i_client_clocks : Clock.t array;
  i_read_latency : Stats.Histogram.t;
  i_write_latency : Stats.Histogram.t;
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
    on_instruments = ignore;
  }

type outcome = {
  metrics : Metrics.t;
  oracle : Oracle.Register_oracle.t;
  store : Vstore.Store.t;
}

(* --- lease worlds --------------------------------------------------- *)

type world = {
  fabric : Messages.payload Cluster.fabric;
  servers : Server.t array;
  clients : Client.t array;
  store : Vstore.Store.t;
  oracle : Oracle.Register_oracle.t;
}

let world setup ~rng ~servers ~client_host ?route ?req_origin () =
  let fabric =
    Cluster.fabric ~tracer:setup.tracer ~profiler:setup.profiler
      ~classify:Messages.trace_class ~rng ~loss:setup.loss ~m_prop:setup.m_prop
      ~m_proc:setup.m_proc ()
  in
  let { Cluster.engine; net; liveness; tracer; _ } = fabric in
  let store = Vstore.Store.create () in
  let client_hosts = List.init setup.n_clients client_host in
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
        Client.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host
          ~server:(fst servers.(0)) ?route ~rng:(Prng.Splitmix.split rng) ~config:setup.config
          ~tracer
          ?req_origin:(Option.map (fun origin -> origin host) req_origin)
          ())
  in
  { fabric; servers = server_objs; clients; store; oracle = Oracle.Register_oracle.create ~store }

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

let drive ?(on_read = fun _ _ -> ()) ?(on_write = fun _ _ -> ()) w ops =
  Cluster.drive w.fabric ~oracle:w.oracle
    ~read:(fun t (op : Workload.Op.t) ->
      Client.read w.clients.(op.client) op.file ~k:(fun r ->
          Cluster.read_done t op r.Client.r_version r.Client.r_latency;
          on_read op r))
    ~write:(fun t (op : Workload.Op.t) ->
      Client.write w.clients.(op.client) op.file ~k:(fun r ->
          Cluster.write_done t r.Client.w_latency;
          on_write op r))
    ops

(* Client counters summed over the clients, server counters over whatever
   servers the world runs. *)
let metrics w tally =
  let clients f = Array.fold_left (fun acc c -> acc + f c) 0 w.clients in
  let servers f = Array.fold_left (fun acc s -> acc + f s) 0 w.servers in
  let handled kind = servers (fun s -> Server.messages_handled s kind) in
  let write_wait = Stats.Histogram.create () in
  Array.iter (fun s -> Stats.Histogram.merge write_wait (Server.write_wait s)) w.servers;
  Cluster.metrics w.fabric tally (fun m ->
      {
        m with
        Metrics.cache_hits = clients Client.hits;
        cache_misses = clients Client.misses;
        msgs_extension = handled Messages.Extension;
        msgs_approval = handled Messages.Approval;
        msgs_installed = handled Messages.Installed;
        msgs_write_transfer = handled Messages.Write_transfer;
        consistency_msgs = servers Server.consistency_messages;
        server_total_msgs = servers Server.messages_handled_total;
        callbacks_sent = servers Server.callbacks_sent;
        commits = servers Server.commits;
        wal_io = servers (fun s -> Vstore.Wal.io_records (Server.wal s));
        write_wait;
        retransmissions = clients Client.retransmissions;
        renewals_sent = clients Client.renewals_sent;
        approvals_answered = clients Client.approvals_answered;
      })

(* --- the single-server harness -------------------------------------- *)

let run setup ~trace =
  Cluster.check ~who:"Sim.run" ~n_clients:setup.n_clients setup.faults trace;
  let w =
    world setup
      ~rng:(Prng.Splitmix.create ~seed:setup.seed)
      ~servers:[| (Cluster.server_host, setup.config) |]
      ~client_host:Cluster.client_host ()
  in
  (* one server: every shard index names it *)
  schedule_faults w ~server_of_shard:(fun _ -> Some 0) ~trace_clients:true setup.faults;
  let tally = drive w (Workload.Trace.ops trace) in
  setup.on_instruments
    {
      i_engine = w.fabric.Cluster.engine;
      i_net = w.fabric.Cluster.net;
      i_server = w.servers.(0);
      i_clients = w.clients;
      i_server_clock = Server.clock w.servers.(0);
      i_client_clocks = Array.map Client.clock w.clients;
      i_read_latency = tally.Cluster.read_latency;
      i_write_latency = tally.Cluster.write_latency;
    };
  Cluster.run w.fabric ~until:(Cluster.horizon trace ~drain:setup.drain);
  { metrics = metrics w tally; oracle = w.oracle; store = w.store }
