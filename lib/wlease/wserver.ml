open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id

type holder = { h_mode : Wmessages.mode; h_expiry : Time.t; h_epoch : Wmessages.epoch }

type waiter = { w_src : Host_id.t; w_req : int; w_mode : Wmessages.mode; w_arrived : Time.t }

type pending = {
  recall_id : int;
  p_file : File_id.t;
  p_waiter : waiter;
  mutable p_waiting : Host_id.Set.t;
  p_deadline : Time.t;  (** server-local: latest conflicting expiry *)
  mutable p_expiry_timer : Clock.timer option;
  mutable p_retry_timer : Engine.handle option;
}

type file_state = {
  mutable holders : holder Host_id.Map.t;
  mutable epoch : Wmessages.epoch;
  mutable pending : pending option;
  queue : waiter Queue.t;
}

(* An unanswered recall is re-multicast after this long. *)
let retry_interval = Time.Span.of_sec 1.

type t = {
  engine : Engine.t;
  clock : Clock.t;
  net : Wmessages.payload Netsim.Net.t;
  host : Host_id.t;
  store : Vstore.Store.t;
  term : Time.Span.t;
  counters : Stats.Counter.Registry.t;
  grant_wait : Stats.Histogram.t;
  files : (File_id.t, file_state) Hashtbl.t;
  applied_flushes : (Host_id.t * int, (Vstore.Version.t * Time.Span.t) option) Hashtbl.t;
  wal : Vstore.Wal.t;  (** persistent max-term record, survives crashes *)
  mutable next_recall : int;
  mutable recovery_end : Time.t;  (** server-local; no service before this *)
  mutable epoch_floor : Wmessages.epoch;
  (** raised by a large stride on every recovery so post-crash epochs can
      never collide with pre-crash ones *)
  mutable up : bool;
}

let count t name = Stats.Counter.incr (Stats.Counter.Registry.counter t.counters name)

let classify = function
  | Wmessages.Acquire_request _ | Wmessages.Acquire_reply _ -> "msgs/extension"
  | Wmessages.Recall_request _ | Wmessages.Recall_reply _ -> "msgs/recall"
  | Wmessages.Flush_request _ | Wmessages.Flush_reply _ -> "msgs/flush"

let count_msg t payload = count t (classify payload)

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
    let s = { holders = Host_id.Map.empty; epoch = 0; pending = None; queue = Queue.create () } in
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

let rec grant t file (s : file_state) (w : waiter) =
  let now = local_now t in
  let expiry = Time.add now t.term in
  Vstore.Wal.record_grant t.wal file ~term:t.term ~expiry;
  let epoch =
    match w.w_mode with
    | Wmessages.Write_lease ->
      s.epoch <- Stdlib.max s.epoch t.epoch_floor + 1;
      (* exclusivity: the writer becomes the only (live) holder *)
      s.holders <- Host_id.Map.empty;
      s.epoch
    | Wmessages.Read_lease -> s.epoch
  in
  s.holders <-
    Host_id.Map.add w.w_src { h_mode = w.w_mode; h_expiry = expiry; h_epoch = epoch } s.holders;
  Stats.Histogram.add t.grant_wait (Time.Span.to_sec (Time.diff (Engine.now t.engine) w.w_arrived));
  send t ~dst:w.w_src
    (Wmessages.Acquire_reply
       {
         req = w.w_req;
         file;
         version = Vstore.Store.current t.store file;
         granted = Some (w.w_mode, t.term, epoch);
       });
  (* serve the next queued acquisition, if any *)
  match Queue.take_opt s.queue with
  | Some next -> start_acquire t file s next
  | None -> ()

and start_acquire t file (s : file_state) (w : waiter) =
  let conflicts = conflicting t s ~src:w.w_src ~mode:w.w_mode in
  if Host_id.Map.is_empty conflicts then grant t file s w
  else begin
    let deadline =
      Host_id.Map.fold (fun _ h acc -> Time.max h.h_expiry acc) conflicts Time.zero
    in
    let p =
      {
        recall_id = t.next_recall;
        p_file = file;
        p_waiter = w;
        p_waiting =
          Host_id.Map.fold (fun host _ acc -> Host_id.Set.add host acc) conflicts
            Host_id.Set.empty;
        p_deadline = deadline;
        p_expiry_timer = None;
        p_retry_timer = None;
      }
    in
    t.next_recall <- t.next_recall + 1;
    s.pending <- Some p;
    let fire () =
      if t.up && (match s.pending with Some q -> q == p | None -> false) then begin
        (* conflicting leases have expired on our clock: their holders are
           out (and any unflushed writes of theirs are now unlandable,
           because the epoch check will reject them) *)
        Host_id.Set.iter (fun host -> s.holders <- Host_id.Map.remove host s.holders) p.p_waiting;
        p.p_waiting <- Host_id.Set.empty;
        finish_pending t s p
      end
    in
    p.p_expiry_timer <- Some (Clock.schedule_at_local t.clock deadline fire);
    send_recalls t s p
  end

and send_recalls t s p =
  let remaining = Host_id.Set.elements p.p_waiting in
  if remaining <> [] then begin
    count t "recalls-sent";
    multicast t ~dsts:remaining (Wmessages.Recall_request { recall = p.recall_id; file = p.p_file });
    (match p.p_retry_timer with Some h -> Engine.cancel h | None -> ());
    p.p_retry_timer <-
      Some
        (Engine.schedule_after t.engine retry_interval (fun () ->
             if t.up
                && (match s.pending with Some q -> q == p | None -> false)
                && not (Host_id.Set.is_empty p.p_waiting)
             then send_recalls t s p))
  end

and finish_pending t s p =
  if Host_id.Set.is_empty p.p_waiting then begin
    (match p.p_expiry_timer with Some h -> Clock.cancel_timer h | None -> ());
    (match p.p_retry_timer with Some h -> Engine.cancel h | None -> ());
    s.pending <- None;
    grant t p.p_file s p.p_waiter
  end

let handle_acquire t ~src ~req file mode =
  let s = state t file in
  let w = { w_src = src; w_req = req; w_mode = mode; w_arrived = Engine.now t.engine } in
  let duplicate =
    (match s.pending with
    | Some p -> Host_id.equal p.p_waiter.w_src src && p.p_waiter.w_req = req
    | None -> false)
    || Queue.fold (fun acc q -> acc || (Host_id.equal q.w_src src && q.w_req = req)) false s.queue
  in
  if duplicate then ()
  else if s.pending <> None then Queue.push w s.queue
  else start_acquire t file s w

let handle_flush t ~src ~req file epoch local_writes =
  match Hashtbl.find_opt t.applied_flushes (src, req) with
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
      if s.pending = None then begin
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
        count t "commits-batches";
        Stats.Counter.add (Stats.Counter.Registry.counter t.counters "commits") local_writes;
        Some (!version, renew ())
      end
      else if valid then Some (Vstore.Store.current t.store file, renew ())
      else begin
        count t "flushes-rejected";
        None
      end
    in
    if accepted <> None then count t "flushes-accepted";
    Hashtbl.replace t.applied_flushes (src, req) accepted;
    send t ~dst:src (Wmessages.Flush_reply { req; file; accepted })

let handle_recall_reply t ~src file recall_id =
  let s = state t file in
  match s.pending with
  | Some p when p.recall_id = recall_id && Host_id.Set.mem src p.p_waiting ->
    p.p_waiting <- Host_id.Set.remove src p.p_waiting;
    s.holders <- Host_id.Map.remove src s.holders;
    finish_pending t s p
  | Some _ | None -> ()

let recovering t = Time.(local_now t < t.recovery_end)

let handle_message t (envelope : Wmessages.payload Netsim.Net.envelope) =
  if t.up && not (recovering t) then begin
    (* A recovering server refuses service until every lease it might have
       granted before the crash has expired (the paper's max-term recovery
       rule); clients simply retransmit into the quiet period. *)
    count_msg t envelope.payload;
    match envelope.payload with
    | Wmessages.Acquire_request { req; file; mode } ->
      handle_acquire t ~src:envelope.src ~req file mode
    | Wmessages.Flush_request { req; file; epoch; local_writes } ->
      handle_flush t ~src:envelope.src ~req file epoch local_writes
    | Wmessages.Recall_reply { recall; file } -> handle_recall_reply t ~src:envelope.src file recall
    | Wmessages.Acquire_reply _ | Wmessages.Flush_reply _ | Wmessages.Recall_request _ -> ()
  end

let on_crash t =
  t.up <- false;
  Hashtbl.iter
    (fun _ s ->
      (match s.pending with
      | Some p ->
        (match p.p_expiry_timer with Some h -> Clock.cancel_timer h | None -> ());
        (match p.p_retry_timer with Some h -> Engine.cancel h | None -> ())
      | None -> ());
      s.pending <- None;
      Queue.clear s.queue;
      s.holders <- Host_id.Map.empty)
    t.files;
  Hashtbl.reset t.applied_flushes

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
      counters = Stats.Counter.Registry.create ();
      grant_wait = Stats.Histogram.create ();
      files = Hashtbl.create 64;
      applied_flushes = Hashtbl.create 256;
      wal = Vstore.Wal.create Vstore.Wal.Max_term_only;
      next_recall = 0;
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

let find t name = Stats.Counter.Registry.find t.counters name

let commits t = find t "commits"
let recalls_sent t = find t "recalls-sent"
let flushes_accepted t = find t "flushes-accepted"
let flushes_rejected t = find t "flushes-rejected"
let messages_extension t = find t "msgs/extension"
let messages_recall t = find t "msgs/recall"
let messages_flush t = find t "msgs/flush"
let grant_wait t = t.grant_wait
