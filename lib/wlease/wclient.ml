open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id

type wconfig = {
  transit_allowance : Time.Span.t;
  skew_allowance : Time.Span.t;
  retry_interval : Time.Span.t;
  write_back_delay : Time.Span.t;
  flush_lead : Time.Span.t;
}

let default_wconfig =
  {
    transit_allowance = Time.Span.of_ms 2.5;
    skew_allowance = Time.Span.of_ms 100.;
    retry_interval = Time.Span.of_sec 1.;
    write_back_delay = Time.Span.of_sec 5.;
    flush_lead = Time.Span.of_sec 1.;
  }

type read_result = {
  r_version : Vstore.Version.t;
  r_latency : Time.Span.t;
  r_from_cache : bool;
  r_dirty : bool;
}

type write_result = { w_latency : Time.Span.t; w_acquired_lease : bool }

type entry = {
  mutable version : Vstore.Version.t;
  mutable mode : Wmessages.mode;
  mutable expiry : Time.t;  (** client clock; write leases flush before this *)
  mutable epoch : Wmessages.epoch;
  mutable dirty : int;
  mutable flush_timer : Clock.timer option;
  mutable pending_recall : int option;
  mutable flushing : (int * int) option;  (** in-flight flush: (req, writes covered) *)
}

type rpc_kind =
  | R_acquire_read of { file : File_id.t; k : read_result -> unit }
  | R_acquire_write of { file : File_id.t; k : write_result -> unit }
  | R_flush of { file : File_id.t; sent_local : Time.t }
      (** [sent_local]: client clock when the flush was first sent, the
          latest instant the server's renewal can have started from *)

type rpc = {
  req : int;
  started : Time.t;
  kind : rpc_kind;
  message : Wmessages.payload;
  mutable timer : Engine.handle option;
}

type queued_op =
  | Q_read of (read_result -> unit)
  | Q_write of (write_result -> unit)

type t = {
  engine : Engine.t;
  clock : Clock.t;
  net : Wmessages.payload Netsim.Net.t;
  host : Host_id.t;
  server : Host_id.t;
  config : wconfig;
  counters : Stats.Counter.Registry.t;
  cache : (File_id.t, entry) Hashtbl.t;
  rpcs : (int, rpc) Hashtbl.t;
  busy : (File_id.t, unit) Hashtbl.t;
  op_queue : (File_id.t, queued_op Queue.t) Hashtbl.t;
  mutable next_req : int;
  mutable up : bool;
}

let bump t name = Stats.Counter.incr (Stats.Counter.Registry.counter t.counters name)
let bump_by t name n = Stats.Counter.add (Stats.Counter.Registry.counter t.counters name) n

let host t = t.host
let local_now t = Clock.now t.clock

let lease_valid t entry = Time.(local_now t < entry.expiry)

let holds_lease t file =
  match Hashtbl.find_opt t.cache file with
  | Some entry when lease_valid t entry -> Some entry.mode
  | Some _ | None -> None

let dirty_writes t file =
  match Hashtbl.find_opt t.cache file with Some entry -> entry.dirty | None -> 0

(* ------------------------------------------------------------------ *)
(* RPC plumbing (same retransmission discipline as the core client)    *)

let send_to_server t payload = Netsim.Net.send t.net ~src:t.host ~dst:t.server payload

let rec arm_retry t rpc =
  rpc.timer <-
    Some
      (Engine.schedule_after t.engine t.config.retry_interval (fun () ->
           if t.up && Hashtbl.mem t.rpcs rpc.req then begin
             bump t "retransmissions";
             send_to_server t rpc.message;
             arm_retry t rpc
           end))

let start_rpc t kind message ~req =
  let rpc = { req; started = Engine.now t.engine; kind; message; timer = None } in
  Hashtbl.replace t.rpcs req rpc;
  send_to_server t message;
  arm_retry t rpc

let finish_rpc t rpc =
  (match rpc.timer with Some h -> Engine.cancel h | None -> ());
  Hashtbl.remove t.rpcs rpc.req

let fresh_req t =
  let req = t.next_req in
  t.next_req <- t.next_req + 1;
  req

(* ------------------------------------------------------------------ *)
(* Cache maintenance                                                   *)

let cancel_flush_timer entry =
  match entry.flush_timer with
  | Some h ->
    Clock.cancel_timer h;
    entry.flush_timer <- None
  | None -> ()

let drop_entry t file =
  match Hashtbl.find_opt t.cache file with
  | Some entry ->
    if entry.dirty > 0 then bump_by t "writes-lost" entry.dirty;
    cancel_flush_timer entry;
    Hashtbl.remove t.cache file
  | None -> ()

let client_expiry t ~from ~term =
  let effective =
    Time.Span.clamp_non_negative
      (Time.Span.sub (Time.Span.sub term t.config.transit_allowance) t.config.skew_allowance)
  in
  Time.add from effective

(* ------------------------------------------------------------------ *)
(* Flushing                                                            *)

let rec start_flush t file entry =
  if t.up && entry.flushing = None && entry.dirty > 0 then begin
    bump t "flushes-sent";
    let req = fresh_req t in
    entry.flushing <- Some (req, entry.dirty);
    start_rpc t (R_flush { file; sent_local = local_now t })
      (Wmessages.Flush_request { req; file; epoch = entry.epoch; local_writes = entry.dirty })
      ~req
  end

and arm_flush_timer t file entry =
  if entry.flush_timer = None && entry.dirty > 0 then begin
    let by_delay = Time.add (local_now t) t.config.write_back_delay in
    let by_expiry = Time.add entry.expiry (Time.Span.neg t.config.flush_lead) in
    let at_local = Time.min by_delay by_expiry in
    let fire () =
      match Hashtbl.find_opt t.cache file with
      | Some e when e == entry ->
        entry.flush_timer <- None;
        start_flush t file entry
      | Some _ | None -> ()
    in
    entry.flush_timer <- Some (Clock.schedule_at_local t.clock at_local fire)
  end

(* ------------------------------------------------------------------ *)
(* Operations (serialised per file, as in the core client)             *)

let is_busy t file = Hashtbl.mem t.busy file

let enqueue_op t file op =
  let q =
    match Hashtbl.find_opt t.op_queue file with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.op_queue file q;
      q
  in
  Queue.push op q

let rec read t file ~k =
  if not t.up then ()
  else if is_busy t file then enqueue_op t file (Q_read k)
  else begin
    match Hashtbl.find_opt t.cache file with
    | Some entry when lease_valid t entry ->
      bump t "hits";
      k
        {
          r_version = entry.version;
          r_latency = Time.Span.zero;
          r_from_cache = true;
          r_dirty = entry.dirty > 0;
        }
    | Some _ | None ->
      bump t "misses";
      (* an expired entry, dirty or not, is dead weight: a rejected flush
         would lose the writes anyway, so count and drop them now *)
      drop_entry t file;
      Hashtbl.replace t.busy file ();
      let req = fresh_req t in
      start_rpc t
        (R_acquire_read { file; k })
        (Wmessages.Acquire_request { req; file; mode = Wmessages.Read_lease })
        ~req
  end

and write t file ~k =
  if not t.up then ()
  else if is_busy t file then enqueue_op t file (Q_write k)
  else begin
    match Hashtbl.find_opt t.cache file with
    | Some entry when lease_valid t entry && entry.mode = Wmessages.Write_lease ->
      entry.dirty <- entry.dirty + 1;
      arm_flush_timer t file entry;
      k { w_latency = Time.Span.zero; w_acquired_lease = false }
    | Some _ | None ->
      (match Hashtbl.find_opt t.cache file with
      | Some entry when lease_valid t entry ->
        (* upgrade read -> write: keep the clean copy, ask for exclusivity *)
        ignore entry
      | Some _ | None -> drop_entry t file);
      Hashtbl.replace t.busy file ();
      let req = fresh_req t in
      start_rpc t
        (R_acquire_write { file; k })
        (Wmessages.Acquire_request { req; file; mode = Wmessages.Write_lease })
        ~req
  end

and release t file =
  Hashtbl.remove t.busy file;
  drain_queue t file

and drain_queue t file =
  if not (is_busy t file) then begin
    match Hashtbl.find_opt t.op_queue file with
    | Some q when not (Queue.is_empty q) ->
      (match Queue.pop q with
      | Q_read k -> read t file ~k
      | Q_write k -> write t file ~k);
      drain_queue t file
    | Some _ | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Message handling                                                    *)

let install_grant t file ~version ~mode ~term ~epoch =
  drop_entry t file;
  let entry =
    {
      version;
      mode;
      expiry = client_expiry t ~from:(local_now t) ~term;
      epoch;
      dirty = 0;
      flush_timer = None;
      pending_recall = None;
      flushing = None;
    }
  in
  Hashtbl.replace t.cache file entry;
  entry

let answer_recall t file recall =
  bump t "recalls-answered";
  send_to_server t (Wmessages.Recall_reply { recall; file })

let handle_message t (envelope : Wmessages.payload Netsim.Net.envelope) =
  if t.up then begin
    match envelope.payload with
    | Wmessages.Acquire_reply { req; file; version; granted } -> (
      match Hashtbl.find_opt t.rpcs req, granted with
      | Some ({ kind = R_acquire_read { file = rfile; k }; _ } as rpc), Some (mode, term, epoch)
        when File_id.equal file rfile ->
        finish_rpc t rpc;
        ignore (install_grant t file ~version ~mode ~term ~epoch);
        k
          {
            r_version = version;
            r_latency = Time.diff (Engine.now t.engine) rpc.started;
            r_from_cache = false;
            r_dirty = false;
          };
        release t file
      | Some ({ kind = R_acquire_write { file = wfile; k }; _ } as rpc), Some (mode, term, epoch)
        when File_id.equal file wfile ->
        finish_rpc t rpc;
        let entry = install_grant t file ~version ~mode ~term ~epoch in
        entry.dirty <- 1;
        arm_flush_timer t file entry;
        k
          {
            w_latency = Time.diff (Engine.now t.engine) rpc.started;
            w_acquired_lease = true;
          };
        release t file
      | Some _, _ | None, _ -> ())
    | Wmessages.Flush_reply { req; file; accepted } -> (
      match Hashtbl.find_opt t.rpcs req with
      | Some ({ kind = R_flush { file = ffile; sent_local }; _ } as rpc)
        when File_id.equal file ffile -> (
        finish_rpc t rpc;
        match Hashtbl.find_opt t.cache file with
        (* only the entry this flush was sent for: if that one was dropped
           and a later grant installed another, the reply is not about it *)
        | Some ({ flushing = Some (flush_req, covered); _ } as entry) when flush_req = req -> (
          entry.flushing <- None;
          match accepted with
          | Some (version, renewed_term) ->
            entry.version <- version;
            entry.dirty <- Stdlib.max 0 (entry.dirty - covered);
            (* a retransmitted flush is answered from the server's reply
               cache, possibly retry intervals after the renewal: time the
               term from the first send, never from this arrival *)
            if entry.pending_recall = None then
              entry.expiry <-
                Time.max entry.expiry (client_expiry t ~from:sent_local ~term:renewed_term);
            (match entry.pending_recall with
            | Some recall ->
              if entry.dirty > 0 then start_flush t file entry
              else begin
                answer_recall t file recall;
                drop_entry t file
              end
            | None -> if entry.dirty > 0 then arm_flush_timer t file entry)
          | None ->
            (* stale epoch or expired lease: those writes are gone *)
            let recall = entry.pending_recall in
            drop_entry t file;
            (match recall with Some r -> answer_recall t file r | None -> ()))
        | Some _ | None -> ())
      | Some _ | None -> ())
    | Wmessages.Recall_request { recall; file } -> (
      match Hashtbl.find_opt t.cache file with
      | None -> answer_recall t file recall
      | Some entry ->
        if entry.dirty > 0 && lease_valid t entry then begin
          (* flush first, release after *)
          if entry.pending_recall = None then begin
            entry.pending_recall <- Some recall;
            cancel_flush_timer entry;
            start_flush t file entry
          end
        end
        else begin
          answer_recall t file recall;
          drop_entry t file
        end)
    | Wmessages.Acquire_request _ | Wmessages.Flush_request _ | Wmessages.Recall_reply _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let on_crash t =
  t.up <- false;
  Hashtbl.iter
    (fun _ entry ->
      if entry.dirty > 0 then bump_by t "writes-lost" entry.dirty;
      cancel_flush_timer entry)
    t.cache;
  Hashtbl.reset t.cache;
  Hashtbl.iter (fun _ rpc -> match rpc.timer with Some h -> Engine.cancel h | None -> ()) t.rpcs;
  Hashtbl.reset t.rpcs;
  Hashtbl.reset t.busy;
  Hashtbl.reset t.op_queue

let create ~engine ~clock ~net ~liveness ~host ~server ~config () =
  let t =
    {
      engine;
      clock;
      net;
      host;
      server;
      config;
      counters = Stats.Counter.Registry.create ();
      cache = Hashtbl.create 128;
      rpcs = Hashtbl.create 32;
      busy = Hashtbl.create 16;
      op_queue = Hashtbl.create 16;
      next_req = 0;
      up = true;
    }
  in
  Netsim.Net.register net host (handle_message t);
  Host.Liveness.register liveness host
    ~on_crash:(fun () -> on_crash t)
    ~on_recover:(fun () -> t.up <- true)
    ();
  t

let find t name = Stats.Counter.Registry.find t.counters name

let hits t = find t "hits"
let misses t = find t "misses"
let flushes_sent t = find t "flushes-sent"
let writes_lost t = find t "writes-lost"
let recalls_answered t = find t "recalls-answered"
let retransmissions t = find t "retransmissions"
