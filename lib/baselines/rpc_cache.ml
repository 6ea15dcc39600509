open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id

type keep = Forever | For of Time.Span.t | Never

type payload =
  | Fetch_request of { req : int; file : File_id.t }
  | Fetch_reply of { req : int; file : File_id.t; version : Vstore.Version.t; keep : keep }
  | Reval_request of { req : int; entries : (File_id.t * Vstore.Version.t) list }
  | Reval_reply of { req : int; stale : (File_id.t * Vstore.Version.t) list }
  | Break_request of { wid : int; file : File_id.t }
  | Break_reply of { wid : int; file : File_id.t }
  | Write_request of { req : int; file : File_id.t }
  | Write_reply of { req : int; file : File_id.t; version : Vstore.Version.t; keep : keep }

let category : payload -> Leases.Messages.category = function
  | Fetch_request _ | Fetch_reply _ | Reval_request _ | Reval_reply _ -> Extension
  | Break_request _ | Break_reply _ -> Approval
  | Write_request _ | Write_reply _ -> Write_transfer

let payload_name = function
  | Fetch_request _ -> "fetch-req"
  | Fetch_reply _ -> "fetch-rep"
  | Reval_request _ -> "reval-req"
  | Reval_reply _ -> "reval-rep"
  | Break_request _ -> "break-req"
  | Break_reply _ -> "break-rep"
  | Write_request _ -> "write-req"
  | Write_reply _ -> "write-rep"

let now_sec engine = Time.to_sec (Engine.now engine)

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

(* [expires] is [None] for a promise the server must break. *)
type entry = { version : Vstore.Version.t; expires : Time.t option }

(* [k] receives the version and the op's latency. *)
type rpc_kind =
  | Read of { file : File_id.t; k : Vstore.Version.t -> Time.Span.t -> unit }
  | Write of { file : File_id.t; k : Vstore.Version.t -> Time.Span.t -> unit }
  | Poll

type client = {
  engine : Engine.t;
  net : payload Netsim.Net.t;
  host : Host_id.t;
  mutable hits : int;
  mutable misses : int;
  mutable polls : int;
  mutable breaks_answered : int;
  cache : (File_id.t, entry) Hashtbl.t;
  rpcs : (rpc_kind, payload) Netsim.Rpc_table.t;
  mutable up : bool;
  tracer : Trace.Sink.t;
}

let emit c ev = Trace.Sink.emit c.tracer (now_sec c.engine) ev

let send c payload = Netsim.Net.send c.net ~src:c.host ~dst:Leases.Cluster.server_host payload

(* A kept version is traced as a client-side lease: a promise as one with
   no expiry, live until an invalidation (or crash); a hint as one with
   the TTL horizon but no matching server-side grant, so the checker
   blames only genuinely stale hits. *)
let remember c file version keep =
  let put expires =
    Hashtbl.replace c.cache file { version; expires };
    if Trace.Sink.enabled c.tracer then
      emit c
        (Trace.Event.Client_lease
           {
             host = Host_id.to_int c.host;
             file = File_id.to_int file;
             version = Vstore.Version.to_int version;
             expiry = Option.map Time.to_sec expires;
             local_now = now_sec c.engine;
           })
  in
  match keep with
  | Forever -> put None
  | For span -> put (Some (Time.add (Engine.now c.engine) span))
  | Never -> ()

let invalidate c file =
  if Trace.Sink.enabled c.tracer && Hashtbl.mem c.cache file then
    emit c
      (Trace.Event.Cache_invalidate { host = Host_id.to_int c.host; file = File_id.to_int file });
  Hashtbl.remove c.cache file

let start_rpc c kind message_of_req =
  let req = Netsim.Rpc_table.fresh_req c.rpcs in
  Netsim.Rpc_table.start c.rpcs ~req ~dst:Leases.Cluster.server_host kind (message_of_req req)

let complete c (call : (rpc_kind, payload) Netsim.Rpc_table.call) k version =
  Netsim.Rpc_table.finish c.rpcs call.req;
  k version (Time.diff (Engine.now c.engine) call.started)

let live ~now = function None -> true | Some expires -> Time.(now < expires)

let read c file ~k =
  if c.up then begin
    let now = Engine.now c.engine in
    match Hashtbl.find_opt c.cache file with
    | Some { version; expires } when live ~now expires ->
      c.hits <- c.hits + 1;
      if Trace.Sink.enabled c.tracer then
        emit c
          (Trace.Event.Cache_hit
             {
               host = Host_id.to_int c.host;
               file = File_id.to_int file;
               version = Vstore.Version.to_int version;
               local_now = Time.to_sec now;
             });
      k version Time.Span.zero
    | Some _ | None ->
      c.misses <- c.misses + 1;
      if Trace.Sink.enabled c.tracer then
        emit c
          (Trace.Event.Cache_miss { host = Host_id.to_int c.host; file = File_id.to_int file });
      start_rpc c (Read { file; k }) (fun req -> Fetch_request { req; file })
  end

let write c file ~k =
  if c.up then begin
    invalidate c file;
    start_rpc c (Write { file; k }) (fun req -> Write_request { req; file })
  end

let rec poll c ~period =
  ignore
    (Engine.schedule_after c.engine period (fun () ->
         if c.up then begin
           let entries = Hashtbl.fold (fun file e acc -> (file, e.version) :: acc) c.cache [] in
           if entries <> [] then begin
             c.polls <- c.polls + 1;
             start_rpc c Poll (fun req -> Reval_request { req; entries })
           end
         end;
         poll c ~period))

(* A fetch reply is kept even when its RPC is gone (a retransmission's
   second reply); a write reply only when it answers its RPC. *)
let handle c (envelope : payload Netsim.Net.envelope) =
  if c.up then begin
    match envelope.payload with
    | Fetch_reply { req; file; version; keep } -> (
      remember c file version keep;
      match Netsim.Rpc_table.find c.rpcs req with
      | Some ({ kind = Read { file = rfile; k }; _ } as call) when File_id.equal file rfile ->
        complete c call k version
      | Some _ | None -> ())
    | Write_reply { req; file; version; keep } -> (
      match Netsim.Rpc_table.find c.rpcs req with
      | Some ({ kind = Write { file = wfile; k }; _ } as call) when File_id.equal file wfile ->
        remember c file version keep;
        complete c call k version
      | Some _ | None -> ())
    | Reval_reply { req; stale } -> (
      (* the server renewed its promise on every entry it listed *)
      List.iter (fun (file, version) -> remember c file version Forever) stale;
      match Netsim.Rpc_table.find c.rpcs req with
      | Some { kind = Poll; _ } -> Netsim.Rpc_table.finish c.rpcs req
      | Some _ | None -> ())
    | Break_request { wid; file } ->
      c.breaks_answered <- c.breaks_answered + 1;
      invalidate c file;
      send c (Break_reply { wid; file })
    | Fetch_request _ | Reval_request _ | Write_request _ | Break_reply _ -> ()
  end

let create_client (w : payload Leases.Cluster.fabric) i =
  let host = Leases.Cluster.client_host i in
  let c =
    {
      engine = w.engine;
      net = w.net;
      host;
      hits = 0;
      misses = 0;
      polls = 0;
      breaks_answered = 0;
      cache = Hashtbl.create 128;
      (* the servers answer by (client, req), and callback traces carry
         the req as the op id: ids count per client from 0 *)
      rpcs =
        Netsim.Rpc_table.create ~net:w.net ~host ~req_origin:0
          ~retry_max:Netsim.Rpc_table.retry_interval ();
      up = true;
      tracer = w.tracer;
    }
  in
  Netsim.Net.register w.net c.host (handle c);
  Host.Liveness.register w.liveness c.host
    ~on_crash:(fun () ->
      c.up <- false;
      Hashtbl.reset c.cache;
      Netsim.Rpc_table.cancel_all c.rpcs)
    ~on_recover:(fun () -> c.up <- true)
    ();
  c

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)

let run ~who (setup : Leases.Sim.setup) ~server ~client ~messages ~report ~trace =
  Leases.Cluster.check ~who ~n_clients:setup.n_clients setup.faults trace;
  let w =
    Leases.Cluster.fabric ~tracer:setup.tracer ~profiler:setup.profiler
      ~classify:(fun p -> (Trace.Event.M_other (payload_name p), -1))
      ~rng:(Prng.Splitmix.create ~seed:setup.seed)
      ~loss:setup.loss ~m_prop:setup.m_prop ~m_proc:setup.m_proc ()
  in
  let store = Vstore.Store.create () in
  let srv = server w store in
  let clients =
    Array.init setup.n_clients (fun i ->
        let c = create_client w i in
        client c;
        c)
  in
  let oracle = Oracle.Register_oracle.create ~store in
  (* No baseline keeps a clock: clock faults do not apply. *)
  Leases.Cluster.schedule_faults w (Leases.Cluster.one_server ()) setup.faults;
  let tally =
    Leases.Cluster.drive w ~oracle
      ~read:(fun t ~client file ~start ->
        read clients.(client) file ~k:(Leases.Cluster.read_done t ~file ~start))
      ~write:(fun t ~client file ~start:_ ->
        write clients.(client) file ~k:(fun _ -> Leases.Cluster.write_done t))
      trace
  in
  Leases.Cluster.run w ~until:(Leases.Cluster.horizon trace ~drain:setup.drain);
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 clients in
  let metrics =
    Leases.Cluster.metrics w tally (fun m ->
        report srv
          {
            (Leases.Metrics.with_messages [| messages srv |] m) with
            Leases.Metrics.cache_hits = sum (fun c -> c.hits);
            cache_misses = sum (fun c -> c.misses);
            retransmissions = sum (fun c -> Netsim.Rpc_table.retransmissions c.rpcs);
            renewals_sent = sum (fun c -> c.polls);
            approvals_answered = sum (fun c -> c.breaks_answered);
          })
  in
  { Leases.Sim.metrics; oracle; store }
