open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id

type setup = {
  seed : int64;
  n_clients : int;
  m_prop : Time.Span.t;
  m_proc : Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Time.Span.t;
  ttl : Time.Span.t;
  tracer : Trace.Sink.t;
}

let default_setup =
  {
    seed = 1L;
    n_clients = 1;
    m_prop = Time.Span.of_ms 0.5;
    m_proc = Time.Span.of_ms 1.;
    loss = 0.;
    faults = [];
    drain = Time.Span.of_sec 120.;
    ttl = Time.Span.of_sec 10.;
    tracer = Trace.Sink.null;
  }

type payload =
  | Fetch_request of { req : int; file : File_id.t }
  | Fetch_reply of { req : int; file : File_id.t; version : Vstore.Version.t; ttl : Time.Span.t }
  | Write_request of { req : int; file : File_id.t }
  | Write_reply of { req : int; file : File_id.t; version : Vstore.Version.t }

let payload_name = function
  | Fetch_request _ -> "fetch-req"
  | Fetch_reply _ -> "fetch-rep"
  | Write_request _ -> "write-req"
  | Write_reply _ -> "write-rep"

type server = {
  s_net : payload Netsim.Net.t;
  s_host : Host_id.t;
  s_store : Vstore.Store.t;
  s_engine : Engine.t;
  s_ttl : Time.Span.t;
  s_counters : Stats.Counter.Registry.t;
  s_applied : (Host_id.t * int, Vstore.Version.t) Hashtbl.t;
  s_tracer : Trace.Sink.t;
  mutable s_up : bool;
}

let now_sec engine = Time.to_sec (Engine.now engine)

let s_count srv name = Stats.Counter.incr (Stats.Counter.Registry.counter srv.s_counters name)

let s_send srv ~dst payload =
  (match payload with
  | Fetch_request _ | Fetch_reply _ -> s_count srv "msgs/extension"
  | Write_request _ | Write_reply _ -> s_count srv "msgs/write-transfer");
  Netsim.Net.send srv.s_net ~src:srv.s_host ~dst payload

let s_handle srv (envelope : payload Netsim.Net.envelope) =
  if srv.s_up then begin
    (match envelope.payload with
    | Fetch_request _ | Fetch_reply _ -> s_count srv "msgs/extension"
    | Write_request _ | Write_reply _ -> s_count srv "msgs/write-transfer");
    match envelope.payload with
    | Fetch_request { req; file } ->
      s_send srv ~dst:envelope.src
        (Fetch_reply { req; file; version = Vstore.Store.current srv.s_store file; ttl = srv.s_ttl })
    | Write_request { req; file } ->
      let version =
        match Hashtbl.find_opt srv.s_applied (envelope.src, req) with
        | Some version -> version
        | None ->
          (* No leaseholders to consult: the write commits immediately.
             The server holds no promises, so no lease or cover record
             precedes the commit in the trace — outstanding client hints
             are simply left stale until their TTLs run out. *)
          let version = Vstore.Store.commit srv.s_store file ~at:(Engine.now srv.s_engine) in
          Hashtbl.replace srv.s_applied (envelope.src, req) version;
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
      s_send srv ~dst:envelope.src (Write_reply { req; file; version })
    | Fetch_reply _ | Write_reply _ -> ()
  end

type entry = { mutable version : Vstore.Version.t; mutable expires : Time.t }

(* [k] receives the version and the op's latency. *)
type client_rpc_kind =
  | C_read of { file : File_id.t; k : Vstore.Version.t -> Time.Span.t -> unit }
  | C_write of { file : File_id.t; k : Vstore.Version.t -> Time.Span.t -> unit }

type client_rpc = {
  c_req : int;
  c_started : Time.t;
  c_kind : client_rpc_kind;
  c_message : payload;
  mutable c_timer : Engine.handle option;
}

type client = {
  c_engine : Engine.t;
  c_clock : Clock.t;
  c_net : payload Netsim.Net.t;
  c_host : Host_id.t;
  c_server : Host_id.t;
  c_retry : Time.Span.t;
  c_counters : Stats.Counter.Registry.t;
  c_cache : (File_id.t, entry) Hashtbl.t;
  c_rpcs : (int, client_rpc) Hashtbl.t;
  mutable c_next_req : int;
  mutable c_up : bool;
  c_tracer : Trace.Sink.t;
}

let c_count c name = Stats.Counter.incr (Stats.Counter.Registry.counter c.c_counters name)
let c_emit c ev = Trace.Sink.emit c.c_tracer (Time.to_sec (Clock.now c.c_clock)) ev
let c_send c payload = Netsim.Net.send c.c_net ~src:c.c_host ~dst:c.c_server payload

let rec c_arm_retry c rpc =
  rpc.c_timer <-
    Some
      (Engine.schedule_after c.c_engine c.c_retry (fun () ->
           if c.c_up && Hashtbl.mem c.c_rpcs rpc.c_req then begin
             c_count c "retransmissions";
             c_send c rpc.c_message;
             c_arm_retry c rpc
           end))

let c_start_rpc c kind message ~req =
  let rpc =
    { c_req = req; c_started = Engine.now c.c_engine; c_kind = kind; c_message = message;
      c_timer = None }
  in
  Hashtbl.replace c.c_rpcs req rpc;
  c_send c message;
  c_arm_retry c rpc

let c_fresh c =
  let r = c.c_next_req in
  c.c_next_req <- c.c_next_req + 1;
  r

let c_finish c rpc =
  (match rpc.c_timer with Some h -> Engine.cancel h | None -> ());
  Hashtbl.remove c.c_rpcs rpc.c_req

let client_read c file ~k =
  if c.c_up then begin
    let now = Clock.now c.c_clock in
    match Hashtbl.find_opt c.c_cache file with
    | Some entry when Time.(now < entry.expires) ->
      c_count c "hits";
      if Trace.Sink.enabled c.c_tracer then
        c_emit c
          (Trace.Event.Cache_hit
             {
               host = Host_id.to_int c.c_host;
               file = File_id.to_int file;
               version = Vstore.Version.to_int entry.version;
               local_now = Time.to_sec now;
             });
      k entry.version Time.Span.zero
    | Some _ | None ->
      c_count c "misses";
      if Trace.Sink.enabled c.c_tracer then
        c_emit c
          (Trace.Event.Cache_miss { host = Host_id.to_int c.c_host; file = File_id.to_int file });
      let req = c_fresh c in
      c_start_rpc c (C_read { file; k }) (Fetch_request { req; file }) ~req
  end

let client_write c file ~k =
  if c.c_up then begin
    if Trace.Sink.enabled c.c_tracer && Hashtbl.mem c.c_cache file then
      c_emit c
        (Trace.Event.Cache_invalidate
           { host = Host_id.to_int c.c_host; file = File_id.to_int file });
    Hashtbl.remove c.c_cache file;
    let req = c_fresh c in
    c_start_rpc c (C_write { file; k }) (Write_request { req; file }) ~req
  end

let c_handle c (envelope : payload Netsim.Net.envelope) =
  if c.c_up then begin
    match envelope.payload with
    | Fetch_reply { req; file; version; ttl } -> (
      let expires = Time.add (Clock.now c.c_clock) ttl in
      Hashtbl.replace c.c_cache file { version; expires };
      (* A hint is traced as a client-side lease with the TTL horizon but
         no matching server-side grant: the checker will then blame only
         genuinely stale hits, not the server's (nonexistent) promise. *)
      if Trace.Sink.enabled c.c_tracer then
        c_emit c
          (Trace.Event.Client_lease
             {
               host = Host_id.to_int c.c_host;
               file = File_id.to_int file;
               version = Vstore.Version.to_int version;
               expiry = Some (Time.to_sec expires);
               local_now = Time.to_sec (Clock.now c.c_clock);
             });
      match Hashtbl.find_opt c.c_rpcs req with
      | Some ({ c_kind = C_read { file = rfile; k }; _ } as rpc) when File_id.equal file rfile ->
        c_finish c rpc;
        k version (Time.diff (Engine.now c.c_engine) rpc.c_started)
      | Some _ | None -> ())
    | Write_reply { req; file; version } -> (
      match Hashtbl.find_opt c.c_rpcs req with
      | Some ({ c_kind = C_write { file = wfile; k }; _ } as rpc) when File_id.equal file wfile ->
        c_finish c rpc;
        (* Cache our own result, but only as a hint like anything else. *)
        k version (Time.diff (Engine.now c.c_engine) rpc.c_started)
      | Some _ | None -> ())
    | Fetch_request _ | Write_request _ -> ()
  end

let run setup ~trace =
  Leases.Cluster.check ~who:"Ttl_hints.run" ~n_clients:setup.n_clients setup.faults trace;
  let w =
    Leases.Cluster.fabric ~tracer:setup.tracer
      ~classify:(fun p -> (Trace.Event.M_other (payload_name p), -1))
      ~rng:(Prng.Splitmix.create ~seed:setup.seed)
      ~loss:setup.loss ~m_prop:setup.m_prop ~m_proc:setup.m_proc ()
  in
  let { Leases.Cluster.engine; net; liveness; _ } = w in
  let store = Vstore.Store.create () in
  let server =
    {
      s_net = net;
      s_host = Leases.Cluster.server_host;
      s_store = store;
      s_engine = engine;
      s_ttl = setup.ttl;
      s_counters = Stats.Counter.Registry.create ();
      s_applied = Hashtbl.create 256;
      s_tracer = setup.tracer;
      s_up = true;
    }
  in
  Netsim.Net.register net Leases.Cluster.server_host (s_handle server);
  Host.Liveness.register liveness Leases.Cluster.server_host
    ~on_crash:(fun () ->
      server.s_up <- false;
      Hashtbl.reset server.s_applied)
    ~on_recover:(fun () -> server.s_up <- true)
    ();
  let clients =
    Array.init setup.n_clients (fun i ->
        let c =
          {
            c_engine = engine;
            c_clock = Clock.create engine ();
            c_net = net;
            c_host = Leases.Cluster.client_host i;
            c_server = Leases.Cluster.server_host;
            c_retry = Time.Span.of_sec 1.;
            c_counters = Stats.Counter.Registry.create ();
            c_cache = Hashtbl.create 128;
            c_rpcs = Hashtbl.create 32;
            c_next_req = 0;
            c_up = true;
            c_tracer = setup.tracer;
          }
        in
        Netsim.Net.register net c.c_host (c_handle c);
        Host.Liveness.register liveness c.c_host
          ~on_crash:(fun () ->
            c.c_up <- false;
            Hashtbl.reset c.c_cache;
            Hashtbl.iter
              (fun _ rpc -> match rpc.c_timer with Some h -> Engine.cancel h | None -> ())
              c.c_rpcs;
            Hashtbl.reset c.c_rpcs)
          ~on_recover:(fun () -> c.c_up <- true)
          ();
        c)
  in
  let oracle = Oracle.Register_oracle.create ~store in
  (* The clients' clocks only time their hints; clock faults do not apply. *)
  Leases.Cluster.schedule_faults w (Leases.Cluster.one_server ()) setup.faults;
  let tally =
    Leases.Cluster.drive w ~oracle
      ~read:(fun t (op : Workload.Op.t) ->
        client_read clients.(op.client) op.file ~k:(Leases.Cluster.read_done t op))
      ~write:(fun t (op : Workload.Op.t) ->
        client_write clients.(op.client) op.file ~k:(fun _ -> Leases.Cluster.write_done t))
      (Workload.Trace.ops trace)
  in
  Leases.Cluster.run w ~until:(Leases.Cluster.horizon trace ~drain:setup.drain);
  let find registry name = Stats.Counter.Registry.find registry name in
  let sum name = Array.fold_left (fun acc c -> acc + find c.c_counters name) 0 clients in
  let ext = find server.s_counters "msgs/extension" in
  let wtr = find server.s_counters "msgs/write-transfer" in
  let metrics =
    Leases.Cluster.metrics w tally (fun m ->
        {
          m with
          Leases.Metrics.cache_hits = sum "hits";
          cache_misses = sum "misses";
          msgs_extension = ext;
          msgs_write_transfer = wtr;
          consistency_msgs = ext;
          server_total_msgs = ext + wtr;
          commits = find server.s_counters "commits";
          retransmissions = sum "retransmissions";
        })
  in
  { Leases.Sim.metrics; oracle; store }
