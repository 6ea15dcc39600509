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
  break_timeout : Time.Span.t;
  poll_period : Time.Span.t;
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
    break_timeout = Time.Span.of_sec 3.;
    poll_period = Time.Span.of_sec 600.;
    tracer = Trace.Sink.null;
  }

type payload =
  | Fetch_request of { req : int; file : File_id.t }
  | Fetch_reply of { req : int; file : File_id.t; version : Vstore.Version.t }
  | Reval_request of { req : int; entries : (File_id.t * Vstore.Version.t) list }
  | Reval_reply of { req : int; stale : (File_id.t * Vstore.Version.t) list }
  | Break_request of { wid : int; file : File_id.t }
  | Break_reply of { wid : int; file : File_id.t }
  | Write_request of { req : int; file : File_id.t }
  | Write_reply of { req : int; file : File_id.t; version : Vstore.Version.t }

let category = function
  | Fetch_request _ | Fetch_reply _ | Reval_request _ | Reval_reply _ -> `Extension
  | Break_request _ | Break_reply _ -> `Approval
  | Write_request _ | Write_reply _ -> `Write_transfer

let payload_name = function
  | Fetch_request _ -> "fetch-req"
  | Fetch_reply _ -> "fetch-rep"
  | Reval_request _ -> "reval-req"
  | Reval_reply _ -> "reval-rep"
  | Break_request _ -> "break-req"
  | Break_reply _ -> "break-rep"
  | Write_request _ -> "write-req"
  | Write_reply _ -> "write-rep"

(* ------------------------------------------------------------------ *)
(* Server                                                              *)

type pending = {
  wid : int;
  p_file : File_id.t;
  writer : Host_id.t;
  writer_req : int;
  mutable waiting : Host_id.Set.t;
  arrived : Time.t;
  mutable give_up_timer : Engine.handle option;
  mutable retry_timer : Engine.handle option;
}

type server = {
  s_engine : Engine.t;
  s_net : payload Netsim.Net.t;
  s_host : Host_id.t;
  s_store : Vstore.Store.t;
  s_retry : Time.Span.t;
  s_break_timeout : Time.Span.t;
  s_counters : Stats.Counter.Registry.t;
  s_write_wait : Stats.Histogram.t;
  s_tracer : Trace.Sink.t;
  mutable holders : Host_id.Set.t File_id.Map.t;
  s_pending : (File_id.t, pending) Hashtbl.t;
  s_pending_by_id : (int, pending) Hashtbl.t;
  s_queued : (File_id.t, (Host_id.t * int) Queue.t) Hashtbl.t;
  s_applied : (Host_id.t * int, Vstore.Version.t) Hashtbl.t;
  mutable s_next_wid : int;
  mutable s_up : bool;
}

let s_count srv name = Stats.Counter.incr (Stats.Counter.Registry.counter srv.s_counters name)

let s_count_msg srv payload =
  let name =
    match category payload with
    | `Extension -> "msgs/extension"
    | `Approval -> "msgs/approval"
    | `Write_transfer -> "msgs/write-transfer"
  in
  s_count srv name

let s_send srv ~dst payload =
  s_count_msg srv payload;
  Netsim.Net.send srv.s_net ~src:srv.s_host ~dst payload

let s_multicast srv ~dsts payload =
  s_count_msg srv payload;
  Netsim.Net.multicast srv.s_net ~src:srv.s_host ~dsts payload

let now_sec engine = Time.to_sec (Engine.now engine)

let holders_of srv file =
  Option.value (File_id.Map.find_opt file srv.holders) ~default:Host_id.Set.empty

(* A callback promise is an infinite-term lease: no expiry on either
   clock.  The trace records it as such, which is what lets the invariant
   checker demonstrate the protocol's weakness — when the server gives up
   on an unreachable holder and commits anyway, the holder's "lease" is
   still live in the stream and the commit-vs-lease invariant trips. *)
let add_holder srv file host =
  let before = holders_of srv file in
  if Trace.Sink.enabled srv.s_tracer then
    Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
      (Trace.Event.Lease_grant
         {
           file = File_id.to_int file;
           holder = Host_id.to_int host;
           term_s = None;
           server_expiry = None;
           server_now = now_sec srv.s_engine;
           renewal = Host_id.Set.mem host before;
         });
  srv.holders <- File_id.Map.add file (Host_id.Set.add host before) srv.holders

let drop_holder srv file host =
  srv.holders <- File_id.Map.add file (Host_id.Set.remove host (holders_of srv file)) srv.holders

let rec s_start_write srv ~writer ~req file =
  let breakees = Host_id.Set.remove writer (holders_of srv file) in
  if Host_id.Set.is_empty breakees then
    s_commit srv ~writer ~req ~wid:None file ~arrived:(Engine.now srv.s_engine)
  else begin
    let p =
      {
        wid = srv.s_next_wid;
        p_file = file;
        writer;
        writer_req = req;
        waiting = breakees;
        arrived = Engine.now srv.s_engine;
        give_up_timer = None;
        retry_timer = None;
      }
    in
    srv.s_next_wid <- srv.s_next_wid + 1;
    Hashtbl.replace srv.s_pending file p;
    Hashtbl.replace srv.s_pending_by_id p.wid p;
    if Trace.Sink.enabled srv.s_tracer then
      Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
        (Trace.Event.Wait_begin
           {
             write = p.wid;
             op = req;
             file = File_id.to_int file;
             writer = Host_id.to_int writer;
             waiting = List.map Host_id.to_int (Host_id.Set.elements breakees);
             deadline = None;
             server_now = now_sec srv.s_engine;
           });
    (* Transport-level patience only: when it runs out the write proceeds
       and the unreachable holders keep their stale copies.  No release
       events are traced for the abandoned holders: their promises are
       still outstanding, and the checker should see exactly that. *)
    p.give_up_timer <-
      Some
        (Engine.schedule_after srv.s_engine srv.s_break_timeout (fun () ->
             if srv.s_up
                && (match Hashtbl.find_opt srv.s_pending file with Some q -> q == p | None -> false)
             then begin
               if Trace.Sink.enabled srv.s_tracer then
                 Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
                   (Trace.Event.Wait_expire { write = p.wid; file = File_id.to_int file });
               Host_id.Set.iter (fun host -> drop_holder srv file host) p.waiting;
               s_count srv "breaks-abandoned";
               p.waiting <- Host_id.Set.empty;
               s_finish srv p
             end));
    s_send_breaks srv p
  end

and s_send_breaks srv p =
  let remaining = Host_id.Set.elements p.waiting in
  if remaining <> [] then begin
    s_count srv "callbacks-sent";
    if Trace.Sink.enabled srv.s_tracer then
      Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
        (Trace.Event.Approval_request
           {
             write = p.wid;
             file = File_id.to_int p.p_file;
             dsts = List.map Host_id.to_int remaining;
           });
    s_multicast srv ~dsts:remaining (Break_request { wid = p.wid; file = p.p_file });
    (match p.retry_timer with Some h -> Engine.cancel h | None -> ());
    p.retry_timer <-
      Some
        (Engine.schedule_after srv.s_engine srv.s_retry (fun () ->
             if srv.s_up
                && (match Hashtbl.find_opt srv.s_pending p.p_file with
                   | Some q -> q == p
                   | None -> false)
                && not (Host_id.Set.is_empty p.waiting)
             then s_send_breaks srv p))
  end

and s_finish srv p =
  if Host_id.Set.is_empty p.waiting then begin
    (match p.give_up_timer with Some h -> Engine.cancel h | None -> ());
    (match p.retry_timer with Some h -> Engine.cancel h | None -> ());
    Hashtbl.remove srv.s_pending p.p_file;
    Hashtbl.remove srv.s_pending_by_id p.wid;
    s_commit srv ~writer:p.writer ~req:p.writer_req ~wid:(Some p.wid) p.p_file ~arrived:p.arrived
  end

and s_commit srv ~writer ~req ~wid file ~arrived =
  let version = Vstore.Store.commit srv.s_store file ~at:(Engine.now srv.s_engine) in
  Hashtbl.replace srv.s_applied (writer, req) version;
  let waited = Time.Span.to_sec (Time.diff (Engine.now srv.s_engine) arrived) in
  Stats.Histogram.add srv.s_write_wait waited;
  s_count srv "commits";
  if Trace.Sink.enabled srv.s_tracer then
    Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
      (Trace.Event.Commit
         {
           write = wid;
           op = req;
           file = File_id.to_int file;
           writer = Host_id.to_int writer;
           version = Vstore.Version.to_int version;
           server_now = now_sec srv.s_engine;
           waited_s = waited;
         });
  (* Everyone who acked a break is gone from the holder set; the writer
     keeps (or regains) its copy with a fresh callback promise. *)
  srv.holders <- File_id.Map.add file (Host_id.Set.singleton writer) srv.holders;
  if Trace.Sink.enabled srv.s_tracer then
    Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
      (Trace.Event.Lease_grant
         {
           file = File_id.to_int file;
           holder = Host_id.to_int writer;
           term_s = None;
           server_expiry = None;
           server_now = now_sec srv.s_engine;
           renewal = false;
         });
  s_send srv ~dst:writer (Write_reply { req; file; version });
  match Hashtbl.find_opt srv.s_queued file with
  | Some q when not (Queue.is_empty q) ->
    let writer, req = Queue.pop q in
    s_start_write srv ~writer ~req file
  | Some _ | None -> ()

let s_handle_write srv ~writer ~req file =
  match Hashtbl.find_opt srv.s_applied (writer, req) with
  | Some version -> s_send srv ~dst:writer (Write_reply { req; file; version })
  | None ->
    let in_progress =
      match Hashtbl.find_opt srv.s_pending file with
      | Some p -> Host_id.equal p.writer writer && p.writer_req = req
      | None -> false
    in
    let queued =
      match Hashtbl.find_opt srv.s_queued file with
      | Some q -> Queue.fold (fun acc (w, r) -> acc || (Host_id.equal w writer && r = req)) false q
      | None -> false
    in
    if in_progress || queued then ()
    else if Hashtbl.mem srv.s_pending file then begin
      let q =
        match Hashtbl.find_opt srv.s_queued file with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace srv.s_queued file q;
          q
      in
      Queue.push (writer, req) q
    end
    else s_start_write srv ~writer ~req file

let s_handle srv (envelope : payload Netsim.Net.envelope) =
  if srv.s_up then begin
    s_count_msg srv envelope.payload;
    match envelope.payload with
    | Fetch_request { req; file } ->
      add_holder srv file envelope.src;
      s_send srv ~dst:envelope.src
        (Fetch_reply { req; file; version = Vstore.Store.current srv.s_store file })
    | Reval_request { req; entries } ->
      let stale =
        List.filter_map
          (fun (file, version) ->
            add_holder srv file envelope.src;
            let current = Vstore.Store.current srv.s_store file in
            if Vstore.Version.equal current version then None else Some (file, current))
          entries
      in
      s_send srv ~dst:envelope.src (Reval_reply { req; stale })
    | Write_request { req; file } -> s_handle_write srv ~writer:envelope.src ~req file
    | Break_reply { wid; file } -> (
      match Hashtbl.find_opt srv.s_pending_by_id wid with
      | Some p when File_id.equal p.p_file file && Host_id.Set.mem envelope.src p.waiting ->
        p.waiting <- Host_id.Set.remove envelope.src p.waiting;
        drop_holder srv file envelope.src;
        if Trace.Sink.enabled srv.s_tracer then begin
          let at = now_sec srv.s_engine in
          Trace.Sink.emit srv.s_tracer at
            (Trace.Event.Approval_reply
               {
                 write = wid;
                 file = File_id.to_int file;
                 holder = Host_id.to_int envelope.src;
               });
          Trace.Sink.emit srv.s_tracer at
            (Trace.Event.Lease_release
               {
                 file = File_id.to_int file;
                 holder = Host_id.to_int envelope.src;
                 cause = Trace.Event.Approved;
               })
        end;
        s_finish srv p
      | Some _ | None -> ())
    | Fetch_reply _ | Reval_reply _ | Break_request _ | Write_reply _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

(* [k] receives the version and the op's latency. *)
type client_rpc_kind =
  | C_read of { file : File_id.t; k : Vstore.Version.t -> Time.Span.t -> unit }
  | C_write of { file : File_id.t; k : Vstore.Version.t -> Time.Span.t -> unit }
  | C_poll

type client_rpc = {
  c_req : int;
  c_started : Time.t;
  c_kind : client_rpc_kind;
  c_message : payload;
  mutable c_timer : Engine.handle option;
}

type client = {
  c_engine : Engine.t;
  c_net : payload Netsim.Net.t;
  c_host : Host_id.t;
  c_server : Host_id.t;
  c_retry : Time.Span.t;
  c_poll_period : Time.Span.t;
  c_counters : Stats.Counter.Registry.t;
  c_cache : (File_id.t, Vstore.Version.t) Hashtbl.t;
  c_rpcs : (int, client_rpc) Hashtbl.t;
  mutable c_next_req : int;
  mutable c_up : bool;
  c_tracer : Trace.Sink.t;
}

let c_count c name = Stats.Counter.incr (Stats.Counter.Registry.counter c.c_counters name)

let c_emit c ev = Trace.Sink.emit c.c_tracer (now_sec c.c_engine) ev

(* Callbacks never expire, so a cached entry is traced as a lease with no
   expiry; it stays live until an explicit invalidation (or crash). *)
let c_note_lease c file version =
  if Trace.Sink.enabled c.c_tracer then
    c_emit c
      (Trace.Event.Client_lease
         {
           host = Host_id.to_int c.c_host;
           file = File_id.to_int file;
           version = Vstore.Version.to_int version;
           expiry = None;
           local_now = now_sec c.c_engine;
         })

let c_note_invalidate c file =
  if Trace.Sink.enabled c.c_tracer && Hashtbl.mem c.c_cache file then
    c_emit c
      (Trace.Event.Cache_invalidate
         { host = Host_id.to_int c.c_host; file = File_id.to_int file })

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
  let rpc = { c_req = req; c_started = Engine.now c.c_engine; c_kind = kind; c_message = message; c_timer = None } in
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
    match Hashtbl.find_opt c.c_cache file with
    | Some version ->
      c_count c "hits";
      if Trace.Sink.enabled c.c_tracer then
        c_emit c
          (Trace.Event.Cache_hit
             {
               host = Host_id.to_int c.c_host;
               file = File_id.to_int file;
               version = Vstore.Version.to_int version;
               local_now = now_sec c.c_engine;
             });
      k version Time.Span.zero
    | None ->
      c_count c "misses";
      if Trace.Sink.enabled c.c_tracer then
        c_emit c
          (Trace.Event.Cache_miss { host = Host_id.to_int c.c_host; file = File_id.to_int file });
      let req = c_fresh c in
      c_start_rpc c (C_read { file; k }) (Fetch_request { req; file }) ~req
  end

let client_write c file ~k =
  if c.c_up then begin
    c_note_invalidate c file;
    Hashtbl.remove c.c_cache file;
    let req = c_fresh c in
    c_start_rpc c (C_write { file; k }) (Write_request { req; file }) ~req
  end

let rec c_poll_loop c =
  ignore
    (Engine.schedule_after c.c_engine c.c_poll_period (fun () ->
         if c.c_up then begin
           let entries = Hashtbl.fold (fun file v acc -> (file, v) :: acc) c.c_cache [] in
           if entries <> [] then begin
             c_count c "polls";
             let req = c_fresh c in
             c_start_rpc c C_poll (Reval_request { req; entries }) ~req
           end
         end;
         c_poll_loop c))

let c_handle c (envelope : payload Netsim.Net.envelope) =
  if c.c_up then begin
    match envelope.payload with
    | Fetch_reply { req; file; version } -> (
      match Hashtbl.find_opt c.c_rpcs req with
      | Some ({ c_kind = C_read { file = rfile; k }; _ } as rpc) when File_id.equal file rfile ->
        Hashtbl.replace c.c_cache file version;
        c_note_lease c file version;
        k version (Time.diff (Engine.now c.c_engine) rpc.c_started);
        c_finish c rpc
      | Some _ | None ->
        Hashtbl.replace c.c_cache file version;
        c_note_lease c file version)
    | Write_reply { req; file; version } -> (
      match Hashtbl.find_opt c.c_rpcs req with
      | Some ({ c_kind = C_write { file = wfile; k }; _ } as rpc) when File_id.equal file wfile ->
        Hashtbl.replace c.c_cache file version;
        c_note_lease c file version;
        k version (Time.diff (Engine.now c.c_engine) rpc.c_started);
        c_finish c rpc
      | Some _ | None -> ())
    | Reval_reply { req; stale } -> (
      List.iter
        (fun (file, version) ->
          Hashtbl.replace c.c_cache file version;
          c_note_lease c file version)
        stale;
      match Hashtbl.find_opt c.c_rpcs req with
      | Some ({ c_kind = C_poll; _ } as rpc) -> c_finish c rpc
      | Some _ | None -> ())
    | Break_request { wid; file } ->
      c_count c "breaks-answered";
      c_note_invalidate c file;
      Hashtbl.remove c.c_cache file;
      c_send c (Break_reply { wid; file })
    | Fetch_request _ | Reval_request _ | Write_request _ | Break_reply _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)

let run setup ~trace =
  Leases.Cluster.check ~who:"Callback.run" ~n_clients:setup.n_clients setup.faults trace;
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
      s_engine = engine;
      s_net = net;
      s_host = Leases.Cluster.server_host;
      s_store = store;
      s_retry = Time.Span.of_sec 1.;
      s_break_timeout = setup.break_timeout;
      s_counters = Stats.Counter.Registry.create ();
      s_write_wait = Stats.Histogram.create ();
      s_tracer = setup.tracer;
      holders = File_id.Map.empty;
      s_pending = Hashtbl.create 32;
      s_pending_by_id = Hashtbl.create 32;
      s_queued = Hashtbl.create 32;
      s_applied = Hashtbl.create 256;
      s_next_wid = 0;
      s_up = true;
    }
  in
  Netsim.Net.register net Leases.Cluster.server_host (s_handle server);
  Host.Liveness.register liveness Leases.Cluster.server_host
    ~on_crash:(fun () ->
      server.s_up <- false;
      server.holders <- File_id.Map.empty;
      Hashtbl.iter
        (fun _ p ->
          (match p.give_up_timer with Some h -> Engine.cancel h | None -> ());
          match p.retry_timer with Some h -> Engine.cancel h | None -> ())
        server.s_pending;
      Hashtbl.reset server.s_pending;
      Hashtbl.reset server.s_pending_by_id;
      Hashtbl.reset server.s_queued;
      Hashtbl.reset server.s_applied)
    ~on_recover:(fun () -> server.s_up <- true)
    ();
  let clients =
    Array.init setup.n_clients (fun i ->
        let c =
          {
            c_engine = engine;
            c_net = net;
            c_host = Leases.Cluster.client_host i;
            c_server = Leases.Cluster.server_host;
            c_retry = Time.Span.of_sec 1.;
            c_poll_period = setup.poll_period;
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
        c_poll_loop c;
        c)
  in
  let oracle = Oracle.Register_oracle.create ~store in
  (* Callbacks use no clocks: clock faults do not apply. *)
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
  let app = find server.s_counters "msgs/approval" in
  let wtr = find server.s_counters "msgs/write-transfer" in
  let metrics =
    Leases.Cluster.metrics w tally (fun m ->
        {
          m with
          Leases.Metrics.cache_hits = sum "hits";
          cache_misses = sum "misses";
          msgs_extension = ext;
          msgs_approval = app;
          msgs_write_transfer = wtr;
          consistency_msgs = ext + app;
          server_total_msgs = ext + app + wtr;
          callbacks_sent = find server.s_counters "callbacks-sent";
          commits = find server.s_counters "commits";
          write_wait = server.s_write_wait;
          retransmissions = sum "retransmissions";
          renewals_sent = sum "polls";
          approvals_answered = sum "breaks-answered";
        })
  in
  { Leases.Sim.metrics; oracle; store }
