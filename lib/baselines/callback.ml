open Simtime
open Rpc_cache
module Host_id = Host.Host_id
module File_id = Vstore.File_id

(* How long the server retries an unanswered break before proceeding. *)
let break_timeout = Time.Span.of_sec 3.

(* ------------------------------------------------------------------ *)
(* Server                                                              *)

type server = {
  s_engine : Engine.t;
  s_net : payload Netsim.Net.t;
  s_store : Vstore.Store.t;
  s_counters : Stats.Counter.Registry.t;
  s_write_wait : Stats.Histogram.t;
  s_tracer : Trace.Sink.t;
  mutable holders : Host_id.Set.t File_id.Map.t;
  breaks : (server, unit, Vstore.Version.t) Leases.Approval.t;
      (** break rounds, queued writes and committed ones *)
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

(* An acked break drops the holder; so does the give-up, without a traced
   release: the abandoned holder's promise is still outstanding, and the
   checker should see exactly that. *)
let drop_holder srv file host ~approved:_ =
  srv.holders <- File_id.Map.add file (Host_id.Set.remove host (holders_of srv file)) srv.holders

(* A promise never expires, so a break round waits out no lease: only the
   give-up ends it early. *)
let s_start_write srv file ~src:writer ~req () =
  let breakees = Host_id.Set.remove writer (holders_of srv file) in
  if Host_id.Set.is_empty breakees then
    Leases.Approval.commit_now srv.breaks srv file ~src:writer ~req ()
  else
    Leases.Approval.wait srv.breaks srv file ~src:writer ~req () ~holders:breakees ~ask:true
      ~deadline:Leases.Lease.never

let s_send_breaks srv file ~id holders =
  s_count srv "callbacks-sent";
  s_multicast srv ~dsts:holders (Break_request { wid = id; file })

let s_commit srv file ~src:writer ~req () ~id:wid ~started:arrived =
  let version = Vstore.Store.commit srv.s_store file ~at:(Engine.now srv.s_engine) in
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
  version

let s_reply srv file ~src ~req version =
  s_send srv ~dst:src (Write_reply { req; file; version; keep = Forever });
  true

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
    | Write_request { req; file } ->
      Leases.Approval.submit srv.breaks srv file ~src:envelope.src ~req ()
    | Break_reply { wid; file } -> Leases.Approval.answer srv.breaks file ~id:wid envelope.src
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
      breaks =
        Leases.Approval.create ~engine:w.engine ~clock:(Clock.create w.engine ()) ~tracer:w.tracer
          ~id_origin:0 ~start:s_start_write ~ask:s_send_breaks ~release:drop_holder
          ~commit:s_commit ~repeat:s_reply ~give_up:break_timeout ();
      s_up = true;
    }
  in
  Netsim.Net.register w.net Leases.Cluster.server_host (s_handle server);
  Host.Liveness.register w.liveness Leases.Cluster.server_host
    ~on_crash:(fun () ->
      server.s_up <- false;
      server.holders <- File_id.Map.empty;
      Leases.Approval.reset server.breaks)
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
