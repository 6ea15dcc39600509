open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id
module Lease = Leases.Lease
module File_gate = Leases.File_gate

(* Dirty data is flushed this long after the first buffered write... *)
let write_back_delay = Time.Span.of_sec 5.

(* ...or this long before the write lease expires, whichever is sooner. *)
let flush_lead = Time.Span.of_sec 1.

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
  mutable expiry : Lease.expiry;  (** client clock; write leases flush before this *)
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

(* Operations waiting for an in-flight RPC on the same file. *)
type queued_op =
  | Q_read of (read_result -> unit)
  | Q_write of (write_result -> unit)

type t = {
  engine : Engine.t;
  clock : Clock.t;
  net : Wmessages.payload Netsim.Net.t;
  host : Host_id.t;
  server : Host_id.t;
  skew_allowance : Time.Span.t;
  mutable hits : int;
  mutable misses : int;
  mutable flushes_sent : int;
  mutable writes_lost : int;
  mutable recalls_answered : int;
  cache : (File_id.t, entry) Hashtbl.t;
  rpcs : (rpc_kind, Wmessages.payload) Netsim.Rpc_table.t;
  gate : (unit, queued_op) File_gate.t;
      (** files with an acquisition in flight, and the operations queued
          behind it *)
  mutable up : bool;
}

let host t = t.host
let local_now t = Clock.now t.clock

let lease_valid t entry = not (Lease.expired entry.expiry ~now:(local_now t))

let holds_lease t file =
  match Hashtbl.find_opt t.cache file with
  | Some entry when lease_valid t entry -> Some entry.mode
  | Some _ | None -> None

let dirty_writes t file =
  match Hashtbl.find_opt t.cache file with Some entry -> entry.dirty | None -> 0

let send_to_server t payload = Netsim.Net.send t.net ~src:t.host ~dst:t.server payload

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
    t.writes_lost <- t.writes_lost + entry.dirty;
    cancel_flush_timer entry;
    Hashtbl.remove t.cache file
  | None -> ()

let client_expiry t ~from ~term =
  Lease.client_expiry (Lease.Finite term) ~received_at:from
    ~transit_allowance:(Netsim.Net.transit t.net) ~skew_allowance:t.skew_allowance

(* ------------------------------------------------------------------ *)
(* Flushing                                                            *)

let rec start_flush t file entry =
  if t.up && entry.flushing = None && entry.dirty > 0 then begin
    t.flushes_sent <- t.flushes_sent + 1;
    let req = Netsim.Rpc_table.fresh_req t.rpcs in
    entry.flushing <- Some (req, entry.dirty);
    Netsim.Rpc_table.start t.rpcs ~req ~dst:t.server
      (R_flush { file; sent_local = local_now t })
      (Wmessages.Flush_request { req; file; epoch = entry.epoch; local_writes = entry.dirty })
  end

and arm_flush_timer t file entry =
  if entry.flush_timer = None && entry.dirty > 0 then begin
    let by_delay = Time.add (local_now t) write_back_delay in
    let at_local =
      match Lease.deadline entry.expiry with
      | Some expiry -> Time.min by_delay (Time.add expiry (Time.Span.neg flush_lead))
      | None -> by_delay
    in
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

let rec read t file ~k =
  if not t.up then ()
  else if File_gate.held t.gate file then File_gate.wait t.gate file (Q_read k)
  else begin
    match Hashtbl.find_opt t.cache file with
    | Some entry when lease_valid t entry ->
      t.hits <- t.hits + 1;
      k
        {
          r_version = entry.version;
          r_latency = Time.Span.zero;
          r_from_cache = true;
          r_dirty = entry.dirty > 0;
        }
    | Some _ | None ->
      t.misses <- t.misses + 1;
      (* an expired entry, dirty or not, is dead weight: a rejected flush
         would lose the writes anyway, so count and drop them now *)
      drop_entry t file;
      File_gate.hold t.gate file ();
      let req = Netsim.Rpc_table.fresh_req t.rpcs in
      Netsim.Rpc_table.start t.rpcs ~req ~dst:t.server
        (R_acquire_read { file; k })
        (Wmessages.Acquire_request { req; file; mode = Wmessages.Read_lease })
  end

and write t file ~k =
  if not t.up then ()
  else if File_gate.held t.gate file then File_gate.wait t.gate file (Q_write k)
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
      File_gate.hold t.gate file ();
      let req = Netsim.Rpc_table.fresh_req t.rpcs in
      Netsim.Rpc_table.start t.rpcs ~req ~dst:t.server
        (R_acquire_write { file; k })
        (Wmessages.Acquire_request { req; file; mode = Wmessages.Write_lease })
  end

and run t file = function Q_read k -> read t file ~k | Q_write k -> write t file ~k

let release t file = File_gate.free t.gate file run t

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
  t.recalls_answered <- t.recalls_answered + 1;
  send_to_server t (Wmessages.Recall_reply { recall; file })

let handle_message t (envelope : Wmessages.payload Netsim.Net.envelope) =
  if t.up then begin
    match envelope.payload with
    | Wmessages.Acquire_reply { req; file; version; granted } -> (
      match Netsim.Rpc_table.find t.rpcs req, granted with
      | Some { kind = R_acquire_read { file = rfile; k }; started; _ }, Some (mode, term, epoch)
        when File_id.equal file rfile ->
        Netsim.Rpc_table.finish t.rpcs req;
        ignore (install_grant t file ~version ~mode ~term ~epoch);
        k
          {
            r_version = version;
            r_latency = Time.diff (Engine.now t.engine) started;
            r_from_cache = false;
            r_dirty = false;
          };
        release t file
      | Some { kind = R_acquire_write { file = wfile; k }; started; _ }, Some (mode, term, epoch)
        when File_id.equal file wfile ->
        Netsim.Rpc_table.finish t.rpcs req;
        let entry = install_grant t file ~version ~mode ~term ~epoch in
        entry.dirty <- 1;
        arm_flush_timer t file entry;
        k { w_latency = Time.diff (Engine.now t.engine) started; w_acquired_lease = true };
        release t file
      | Some _, _ | None, _ -> ())
    | Wmessages.Flush_reply { req; file; accepted } -> (
      match Netsim.Rpc_table.find t.rpcs req with
      | Some { kind = R_flush { file = ffile; sent_local }; _ } when File_id.equal file ffile -> (
        Netsim.Rpc_table.finish t.rpcs req;
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
                Lease.expiry_max entry.expiry (client_expiry t ~from:sent_local ~term:renewed_term);
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
      t.writes_lost <- t.writes_lost + entry.dirty;
      cancel_flush_timer entry)
    t.cache;
  Hashtbl.reset t.cache;
  Netsim.Rpc_table.cancel_all t.rpcs;
  File_gate.reset t.gate

let create ~engine ~clock ~net ~liveness ~host ~server ~skew_allowance () =
  let t =
    {
      engine;
      clock;
      net;
      host;
      server;
      skew_allowance;
      hits = 0;
      misses = 0;
      flushes_sent = 0;
      writes_lost = 0;
      recalls_answered = 0;
      cache = Hashtbl.create 128;
      rpcs =
        Netsim.Rpc_table.create ~net ~host ~retry_max:Netsim.Rpc_table.retry_interval ();
      gate = File_gate.create ();
      up = true;
    }
  in
  Netsim.Net.register net host (handle_message t);
  Host.Liveness.register liveness host
    ~on_crash:(fun () -> on_crash t)
    ~on_recover:(fun () -> t.up <- true)
    ();
  t

let hits t = t.hits
let misses t = t.misses
let flushes_sent t = t.flushes_sent
let writes_lost t = t.writes_lost
let recalls_answered t = t.recalls_answered
let retransmissions t = Netsim.Rpc_table.retransmissions t.rpcs
