open Simtime
open Rpc_cache
module Host_id = Host.Host_id
module File_id = Vstore.File_id

type server = {
  s_net : payload Netsim.Net.t;
  s_store : Vstore.Store.t;
  s_engine : Engine.t;
  s_ttl : Time.Span.t;
  s_counters : Stats.Counter.Registry.t;
  s_applied : Vstore.Version.t Leases.Answers.t;
  s_tracer : Trace.Sink.t;
  mutable s_up : bool;
}

let now_sec engine = Time.to_sec (Engine.now engine)

let s_count srv name = Stats.Counter.incr (Stats.Counter.Registry.counter srv.s_counters name)

let s_send srv ~dst payload =
  s_count srv (category payload);
  Netsim.Net.send srv.s_net ~src:Leases.Cluster.server_host ~dst payload

let s_handle srv (envelope : payload Netsim.Net.envelope) =
  if srv.s_up then begin
    s_count srv (category envelope.payload);
    match envelope.payload with
    | Fetch_request { req; file } ->
      s_send srv ~dst:envelope.src
        (Fetch_reply
           { req; file; version = Vstore.Store.current srv.s_store file; keep = For srv.s_ttl })
    | Write_request { req; file } ->
      let version =
        match Leases.Answers.find_opt srv.s_applied (envelope.src, req) with
        | Some version -> version
        | None ->
          (* No leaseholders to consult: the write commits immediately.
             The server holds no promises, so no lease or cover record
             precedes the commit in the trace — outstanding client hints
             are simply left stale until their TTLs run out. *)
          let version = Vstore.Store.commit srv.s_store file ~at:(Engine.now srv.s_engine) in
          Leases.Answers.replace srv.s_applied (envelope.src, req) version;
          s_count srv "commits";
          if Trace.Sink.enabled srv.s_tracer then
            Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
              (Trace.Event.Commit
                 {
                   write = None;
                   op = req;
                   file = File_id.to_int file;
                   writer = Host_id.to_int envelope.src;
                   version = Vstore.Version.to_int version;
                   server_now = now_sec srv.s_engine;
                   waited_s = 0.;
                 });
          version
      in
      (* the writer learns its version but gets no hint: it caches nothing *)
      s_send srv ~dst:envelope.src (Write_reply { req; file; version; keep = Never })
    | Fetch_reply _ | Reval_request _ | Reval_reply _ | Break_request _ | Break_reply _
    | Write_reply _ -> ()
  end

let create_server (w : payload Leases.Cluster.fabric) store ~ttl =
  let server =
    {
      s_net = w.net;
      s_store = store;
      s_engine = w.engine;
      s_ttl = ttl;
      s_counters = Stats.Counter.Registry.create ();
      s_applied = Leases.Answers.create 256;
      s_tracer = w.tracer;
      s_up = true;
    }
  in
  Netsim.Net.register w.net Leases.Cluster.server_host (s_handle server);
  Host.Liveness.register w.liveness Leases.Cluster.server_host
    ~on_crash:(fun () ->
      server.s_up <- false;
      Leases.Answers.reset server.s_applied)
    ~on_recover:(fun () -> server.s_up <- true)
    ();
  server

let run (setup : Leases.Sim.setup) ~trace =
  let ttl =
    match setup.config.term_policy with
    | Leases.Term_policy.Zero -> Time.Span.zero
    | Fixed span -> span
    | (Infinite | Adaptive _) as policy ->
      invalid_arg
        (Format.asprintf "Ttl_hints.run: a TTL is the config's zero or fixed term, not %a"
           Leases.Term_policy.pp policy)
  in
  Rpc_cache.run ~who:"Ttl_hints.run" setup ~server:(create_server ~ttl) ~client:ignore
    ~report:(fun server -> report_messages server.s_counters)
    ~trace
