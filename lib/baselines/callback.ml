open Simtime
open Rpc_cache
module Host_id = Host.Host_id
module File_id = Vstore.File_id

(* How long the server retries an unanswered break before proceeding. *)
let break_timeout = Time.Span.of_sec 3.

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
  s_store : Vstore.Store.t;
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
let s_count_msg srv payload = s_count srv (category payload)

let s_send srv ~dst payload =
  s_count_msg srv payload;
  Netsim.Net.send srv.s_net ~src:Leases.Cluster.server_host ~dst payload

let s_multicast srv ~dsts payload =
  s_count_msg srv payload;
  Netsim.Net.multicast srv.s_net ~src:Leases.Cluster.server_host ~dsts payload

let now_sec engine = Time.to_sec (Engine.now engine)

let holders_of srv file =
  Option.value (File_id.Map.find_opt file srv.holders) ~default:Host_id.Set.empty

(* A callback promise is an infinite-term lease: no expiry on either
   clock.  The trace records it as such, which is what lets the invariant
   checker demonstrate the protocol's weakness — when the server gives up
   on an unreachable holder and commits anyway, the holder's "lease" is
   still live in the stream and the commit-vs-lease invariant trips. *)
let trace_promise srv file host ~renewal =
  if Trace.Sink.enabled srv.s_tracer then
    Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
      (Trace.Event.Lease_grant
         {
           file = File_id.to_int file;
           holder = Host_id.to_int host;
           term_s = None;
           server_expiry = None;
           server_now = now_sec srv.s_engine;
           renewal;
         })

let add_holder srv file host =
  let before = holders_of srv file in
  trace_promise srv file host ~renewal:(Host_id.Set.mem host before);
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
        (Engine.schedule_after srv.s_engine break_timeout (fun () ->
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
        (Engine.schedule_after srv.s_engine retry (fun () ->
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
  trace_promise srv file writer ~renewal:false;
  s_send srv ~dst:writer (Write_reply { req; file; version; keep = Forever });
  match Hashtbl.find_opt srv.s_queued file with
  | Some q when not (Queue.is_empty q) ->
    let writer, req = Queue.pop q in
    s_start_write srv ~writer ~req file
  | Some _ | None -> ()

let s_handle_write srv ~writer ~req file =
  match Hashtbl.find_opt srv.s_applied (writer, req) with
  | Some version -> s_send srv ~dst:writer (Write_reply { req; file; version; keep = Forever })
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
        (Fetch_reply
           { req; file; version = Vstore.Store.current srv.s_store file; keep = Forever })
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
(* Harness                                                             *)

let create_server (w : payload Leases.Cluster.fabric) store =
  let server =
    {
      s_engine = w.engine;
      s_net = w.net;
      s_store = store;
      s_counters = Stats.Counter.Registry.create ();
      s_write_wait = Stats.Histogram.create ();
      s_tracer = w.tracer;
      holders = File_id.Map.empty;
      s_pending = Hashtbl.create 32;
      s_pending_by_id = Hashtbl.create 32;
      s_queued = Hashtbl.create 32;
      s_applied = Hashtbl.create 256;
      s_next_wid = 0;
      s_up = true;
    }
  in
  Netsim.Net.register w.net Leases.Cluster.server_host (s_handle server);
  Host.Liveness.register w.liveness Leases.Cluster.server_host
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
  server

let run ?(poll_period = Time.Span.of_sec 600.) setup ~trace =
  if Time.Span.(poll_period <= zero) then
    invalid_arg
      (Printf.sprintf "Callback.run: poll_period must be positive, not %g s"
         (Time.Span.to_sec poll_period));
  Rpc_cache.run ~who:"Callback.run" setup ~server:create_server
    ~client:(fun c -> poll c ~period:poll_period)
    ~report:(fun server m ->
      {
        (report_messages server.s_counters m) with
        Leases.Metrics.callbacks_sent =
          Stats.Counter.Registry.find server.s_counters "callbacks-sent";
        write_wait = server.s_write_wait;
      })
    ~trace
