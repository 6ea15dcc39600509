open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id

type holder = { h_mode : Wmessages.mode; h_expiry : Time.t; h_epoch : Wmessages.epoch }

(* What the server keeps about an acquisition: its mode, and when it
   arrived (the grant-wait histogram counts from there, queueing
   included). *)
type acquisition = { mode : Wmessages.mode; arrived : Time.t }

type file_state = { mutable holders : holder Host_id.Map.t; mutable epoch : Wmessages.epoch }

type t = {
  engine : Engine.t;
  clock : Clock.t;
  net : Wmessages.payload Netsim.Net.t;
  host : Host_id.t;
  store : Vstore.Store.t;
  term : Time.Span.t;
  messages : Leases.Messages.tally;
  mutable commits : int;
  mutable recalls_sent : int;
  mutable flushes_accepted : int;
  mutable flushes_rejected : int;
  grant_wait : Stats.Histogram.t;
  files : (File_id.t, file_state) Hashtbl.t;
  recalls : (t, acquisition, Wmessages.mode * Wmessages.epoch) Leases.Approval.t;
      (** recall rounds, the acquisitions queued behind them, and the
          grants made *)
  applied_flushes : (Vstore.Version.t * Time.Span.t) option Leases.Answers.t;
  wal : Vstore.Wal.t;  (** persistent max-term record, survives crashes *)
  mutable recovery_end : Time.t;  (** server-local; no service before this *)
  mutable epoch_floor : Wmessages.epoch;
  (** raised by a large stride on every recovery so post-crash epochs can
      never collide with pre-crash ones *)
  mutable up : bool;
}

let category : Wmessages.payload -> Leases.Messages.category = function
  | Acquire_request _ | Acquire_reply _ -> Extension
  | Recall_request _ | Recall_reply _ -> Approval
  | Flush_request _ | Flush_reply _ -> Write_transfer

let count_msg t payload = Leases.Messages.count t.messages (category payload)

let send t ~dst payload =
  count_msg t payload;
  Netsim.Net.send t.net ~src:t.host ~dst payload

let multicast t ~dsts payload =
  count_msg t payload;
  Netsim.Net.multicast t.net ~src:t.host ~dsts payload

let local_now t = Clock.now t.clock

let state t file =
  match Hashtbl.find_opt t.files file with
  | Some s -> s
  | None ->
    let s = { holders = Host_id.Map.empty; epoch = 0 } in
    Hashtbl.add t.files file s;
    s

let live_holders t (s : file_state) =
  let now = local_now t in
  Host_id.Map.filter (fun _ h -> Time.(now < h.h_expiry)) s.holders

(* Holders whose leases conflict with [src] acquiring in [mode]. *)
let conflicting t s ~src ~mode =
  let live = Host_id.Map.remove src (live_holders t s) in
  match mode with
  | Wmessages.Write_lease -> live
  | Wmessages.Read_lease ->
    Host_id.Map.filter (fun _ h -> h.h_mode = Wmessages.Write_lease) live

let grant t file ~src ~req { mode; arrived } ~id:_ ~started:_ =
  let s = state t file in
  let now = local_now t in
  let expiry = Time.add now t.term in
  Vstore.Wal.record_grant t.wal file ~term:t.term ~expiry;
  let epoch =
    match mode with
    | Wmessages.Write_lease ->
      s.epoch <- Stdlib.max s.epoch t.epoch_floor + 1;
      (* exclusivity: the writer becomes the only (live) holder *)
      s.holders <- Host_id.Map.empty;
      s.epoch
    | Wmessages.Read_lease -> s.epoch
  in
  s.holders <- Host_id.Map.add src { h_mode = mode; h_expiry = expiry; h_epoch = epoch } s.holders;
  Stats.Histogram.add t.grant_wait (Time.Span.to_sec (Time.diff (Engine.now t.engine) arrived));
  send t ~dst:src
    (Wmessages.Acquire_reply
       {
         req;
         file;
         version = Vstore.Store.current t.store file;
         granted = Some (mode, t.term, epoch);
       });
  (mode, epoch)

(* A retransmitted acquisition that arrives after its grant is answered
   with that grant while the server still records it for the holder (same
   mode, same epoch, unexpired), and with only the term the server still
   counts, so the client's expiry stays inside the server's.  A second
   grant would start an epoch the client never learns of: it finished the
   RPC on the first reply, so every flush it sent would be rejected.
   While a recall round still waits on that holder, the repeat is not
   answered but waits behind the round like a fresh acquisition: a client
   that lost the first reply holds no entry, so it answers the recall at
   once, and would install a regrant sent meanwhile after the server had
   released it, then serve stale reads from it. *)
let regrant t file ~src ~req (mode, epoch) =
  let now = local_now t in
  match Host_id.Map.find_opt src (state t file).holders with
  | Some h
    when h.h_mode = mode && h.h_epoch = epoch
         && Time.(now < h.h_expiry)
         && not (Leases.Approval.asking t.recalls file src) ->
    send t ~dst:src
      (Wmessages.Acquire_reply
         {
           req;
           file;
           version = Vstore.Store.current t.store file;
           granted = Some (mode, Time.diff h.h_expiry now, epoch);
         });
    true
  | Some _ | None -> false

(* A conflicting acquisition recalls the conflicting holders and waits
   until they answer or the latest of their leases expires. *)
let start_acquire t file ~src ~req (a : acquisition) =
  let conflicts = conflicting t (state t file) ~src ~mode:a.mode in
  if Host_id.Map.is_empty conflicts then Leases.Approval.commit_now t.recalls t file ~src ~req a
  else
    let holders =
      Host_id.Map.fold (fun host _ acc -> Host_id.Set.add host acc) conflicts Host_id.Set.empty
    in
    let latest = Host_id.Map.fold (fun _ h acc -> Time.max h.h_expiry acc) conflicts Time.zero in
    Leases.Approval.wait t.recalls t file ~src ~req a ~holders ~ask:true
      ~deadline:(Leases.Lease.at latest)

let send_recalls t file ~id holders =
  t.recalls_sent <- t.recalls_sent + 1;
  multicast t ~dsts:holders (Wmessages.Recall_request { recall = id; file })

(* A holder that answers is out; so is one whose lease expired on our
   clock, and any unflushed writes of its are now unlandable, because the
   epoch check will reject them. *)
let remove_holder t file host ~approved:_ =
  let s = state t file in
  s.holders <- Host_id.Map.remove host s.holders

let handle_flush t ~src ~req file epoch local_writes =
  match Leases.Answers.find_opt t.applied_flushes (src, req) with
  | Some accepted -> send t ~dst:src (Wmessages.Flush_reply { req; file; accepted })
  | None ->
    let s = state t file in
    let now = local_now t in
    let valid =
      match Host_id.Map.find_opt src s.holders with
      | Some h ->
        h.h_mode = Wmessages.Write_lease && h.h_epoch = epoch && epoch = s.epoch
        && Time.(now < h.h_expiry)
      | None -> false
    in
    let renew () =
      (* a live flusher earns a fresh term — but never while a conflicting
         acquisition is already waiting on this holder's expiry, or the
         waiter's deadline arithmetic would be invalidated.  Returns the
         term actually granted, zero when none was, so the reply never
         promises the client more than the server extended. *)
      if not (Leases.Approval.busy t.recalls file) then begin
        let expiry = Time.add now t.term in
        Vstore.Wal.record_grant t.wal file ~term:t.term ~expiry;
        s.holders <-
          Host_id.Map.update src
            (Option.map (fun h -> { h with h_expiry = expiry }))
            s.holders;
        t.term
      end
      else Time.Span.zero
    in
    let accepted =
      if valid && local_writes > 0 then begin
        let version = ref (Vstore.Store.current t.store file) in
        for _ = 1 to local_writes do
          version := Vstore.Store.commit t.store file ~at:(Engine.now t.engine)
        done;
        t.commits <- t.commits + local_writes;
        Some (!version, renew ())
      end
      else if valid then Some (Vstore.Store.current t.store file, renew ())
      else begin
        t.flushes_rejected <- t.flushes_rejected + 1;
        None
      end
    in
    if accepted <> None then t.flushes_accepted <- t.flushes_accepted + 1;
    Leases.Answers.replace t.applied_flushes (src, req) accepted;
    send t ~dst:src (Wmessages.Flush_reply { req; file; accepted })

let recovering t = Time.(local_now t < t.recovery_end)

let handle_message t (envelope : Wmessages.payload Netsim.Net.envelope) =
  if t.up && not (recovering t) then begin
    (* A recovering server refuses service until every lease it might have
       granted before the crash has expired (the paper's max-term recovery
       rule); clients simply retransmit into the quiet period. *)
    count_msg t envelope.payload;
    match envelope.payload with
    | Wmessages.Acquire_request { req; file; mode } ->
      Leases.Approval.submit t.recalls t file ~src:envelope.src ~req
        { mode; arrived = Engine.now t.engine }
    | Wmessages.Flush_request { req; file; epoch; local_writes } ->
      handle_flush t ~src:envelope.src ~req file epoch local_writes
    | Wmessages.Recall_reply { recall; file } ->
      Leases.Approval.answer t.recalls file ~id:recall envelope.src
    | Wmessages.Acquire_reply _ | Wmessages.Flush_reply _ | Wmessages.Recall_request _ -> ()
  end

let on_crash t =
  t.up <- false;
  Hashtbl.iter (fun _ s -> s.holders <- Host_id.Map.empty) t.files;
  Leases.Approval.reset t.recalls;
  Leases.Answers.reset t.applied_flushes

let on_recover t =
  t.up <- true;
  t.recovery_end <- Time.add (local_now t) (Vstore.Wal.max_term t.wal);
  t.epoch_floor <- t.epoch_floor + 1_000_000

let create ~engine ~clock ~net ~liveness ~host ~store ~term () =
  if Time.Span.(term <= Time.Span.zero) then invalid_arg "Wserver.create: term must be positive";
  let t =
    {
      engine;
      clock;
      net;
      host;
      store;
      term;
      messages = Leases.Messages.tally ();
      commits = 0;
      recalls_sent = 0;
      flushes_accepted = 0;
      flushes_rejected = 0;
      grant_wait = Stats.Histogram.create ();
      files = Hashtbl.create 64;
      recalls =
        Leases.Approval.create ~engine ~clock ~id_origin:0 ~start:start_acquire ~ask:send_recalls
          ~release:remove_holder ~commit:grant ~repeat:regrant ();
      applied_flushes = Leases.Answers.create 256;
      wal = Vstore.Wal.create Vstore.Wal.Max_term_only;
      recovery_end = Time.zero;
      epoch_floor = 0;
      up = true;
    }
  in
  Netsim.Net.register net host (handle_message t);
  Host.Liveness.register liveness host
    ~on_crash:(fun () -> on_crash t)
    ~on_recover:(fun () -> on_recover t)
    ();
  t

let host t = t.host

let messages t = t.messages
let commits t = t.commits
let recalls_sent t = t.recalls_sent
let flushes_accepted t = t.flushes_accepted
let flushes_rejected t = t.flushes_rejected
let grant_wait t = t.grant_wait
