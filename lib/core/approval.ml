open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id

type timer = No_timer | Local of Clock.timer | On_engine of Engine.handle

type ('s, 'a) round = {
  server : 's;
  id : int;
  file : File_id.t;
  src : Host_id.t;
  req : int;
  data : 'a;
  started : Time.t;
  mutable waiting : Host_id.Set.t;
  mutable deadline_timer : timer;
  mutable retry_timer : Engine.handle option;
}

(* A request queued behind a round; it carries the server, which starts
   it when its turn comes. *)
type ('s, 'a) request = { q_server : 's; q_src : Host_id.t; q_req : int; q_data : 'a }

type ('s, 'a, 'v) t = {
  engine : Engine.t;
  clock : Clock.t;
  tracer : Trace.Sink.t;
  start : 's -> File_id.t -> src:Host_id.t -> req:int -> 'a -> unit;
  ask : 's -> File_id.t -> id:int -> Host_id.t list -> unit;
  release : 's -> File_id.t -> Host_id.t -> approved:bool -> unit;
  commit :
    's -> File_id.t -> src:Host_id.t -> req:int -> 'a -> id:int option -> started:Time.t -> 'v;
  repeat : 's -> File_id.t -> src:Host_id.t -> req:int -> 'v -> bool;
  hold : ('s -> File_id.t -> Time.t) option;
  give_up : Time.Span.t option;
  gate : (('s, 'a) round, ('s, 'a) request) File_gate.t;
      (** the open rounds hold their files; requests queue behind them *)
  answers : 'v Answers.t;
  mutable next_id : int;
}

let create ~engine ~clock ?(tracer = Trace.Sink.null) ~id_origin ~start ~ask ~release ~commit
    ~repeat ?hold ?give_up () =
  {
    engine;
    clock;
    tracer;
    start;
    ask;
    release;
    commit;
    repeat;
    hold;
    give_up;
    gate = File_gate.create ();
    answers = Answers.create 256;
    next_id = id_origin;
  }

let tracing t = Trace.Sink.enabled t.tracer
let emit t ev = Trace.Sink.emit t.tracer (Time.to_sec (Engine.now t.engine)) ev

(* Cost-center probe, guarded like [emit]. *)
let mark t center =
  let p = Engine.profiler t.engine in
  if Profile.Recorder.enabled p then Profile.Recorder.mark p center

(* Inlined: the lease server asks it for every line it grants. *)
let[@inline] busy t file = File_gate.held t.gate file

(* Lookups that find a round use [holder], which boxes nothing. *)
let is_open t r =
  match File_gate.holder t.gate r.file with q -> q == r | exception Not_found -> false

let cancel_deadline r =
  match r.deadline_timer with
  | Local h -> Clock.cancel_timer h
  | On_engine h -> Engine.cancel h
  | No_timer -> ()

let cancel_retry r = match r.retry_timer with Some h -> Engine.cancel h | None -> ()

let start_queued t file q = t.start q.q_server file ~src:q.q_src ~req:q.q_req q.q_data

(* Close the file's current request: record its answer, free the file and
   start the queued requests until one opens a round. *)
let rec close t s file ~src ~req data ~id ~started =
  Answers.replace t.answers (src, req) (t.commit s file ~src ~req data ~id ~started);
  File_gate.free t.gate file start_queued t

and commit_now t s file ~src ~req data =
  close t s file ~src ~req data ~id:None ~started:(Engine.now t.engine)

(* Ask the silent holders, and re-ask them every retry interval while any
   stays silent. *)
and send t r =
  match Host_id.Set.elements r.waiting with
  | [] -> ()
  | remaining ->
    if tracing t then
      emit t
        (Trace.Event.Approval_request
           {
             write = r.id;
             file = File_id.to_int r.file;
             dsts = List.map Host_id.to_int remaining;
           });
    t.ask r.server r.file ~id:r.id remaining;
    cancel_retry r;
    r.retry_timer <-
      Some
        (Engine.schedule_after t.engine Netsim.Rpc_table.retry_interval (fun () ->
             mark t Profile.Center.Server_write;
             if is_open t r && not (Host_id.Set.is_empty r.waiting) then send t r))

(* The deadline: the holders still silent are abandoned. *)
and expire t r =
  mark t Profile.Center.Server_expiry;
  if is_open t r then begin
    if tracing t then
      emit t (Trace.Event.Wait_expire { write = r.id; file = File_id.to_int r.file });
    Host_id.Set.iter (fun holder -> t.release r.server r.file holder ~approved:false) r.waiting;
    r.waiting <- Host_id.Set.empty;
    finish t r
  end

and arm_expiry t r expiry =
  cancel_deadline r;
  r.deadline_timer <-
    (match Lease.deadline expiry with
    | Some at -> Local (Clock.schedule_at_local t.clock at (fun () -> expire t r))
    | None -> No_timer)

and finish t r =
  if Host_id.Set.is_empty r.waiting then begin
    let until = match t.hold with Some hold -> hold r.server r.file | None -> Time.zero in
    if Time.(Clock.now t.clock < until) then
      (* Every holder has answered, but the server may not close yet:
         wait on that instant alone. *)
      arm_expiry t r (Lease.at until)
    else begin
      cancel_deadline r;
      cancel_retry r;
      close t r.server r.file ~src:r.src ~req:r.req r.data ~id:(Some r.id) ~started:r.started
    end
  end

let wait t s file ~src ~req data ~holders ~ask ~deadline =
  let r =
    {
      server = s;
      id = t.next_id;
      file;
      src;
      req;
      data;
      started = Engine.now t.engine;
      waiting = (if ask then holders else Host_id.Set.empty);
      deadline_timer = No_timer;
      retry_timer = None;
    }
  in
  t.next_id <- t.next_id + 1;
  File_gate.hold t.gate file r;
  if tracing t then
    emit t
      (Trace.Event.Wait_begin
         {
           write = r.id;
           op = req;
           file = File_id.to_int file;
           writer = Host_id.to_int src;
           waiting = List.map Host_id.to_int (Host_id.Set.elements holders);
           deadline = Lease.expiry_sec deadline;
           server_now = Time.to_sec (Clock.now t.clock);
         });
  (match t.give_up with
  | Some span ->
    r.deadline_timer <- On_engine (Engine.schedule_after t.engine span (fun () -> expire t r))
  | None -> arm_expiry t r deadline);
  send t r

(* On a busy file: the open or a queued request is [(src, req)]. *)
let duplicate t file ~src ~req =
  let r = File_gate.holder t.gate file in
  (Host_id.equal r.src src && Int.equal r.req req)
  || File_gate.waits t.gate file (fun q -> Host_id.equal q.q_src src && Int.equal q.q_req req)

let submit t s file ~src ~req data =
  let answered =
    match Answers.find_opt t.answers (src, req) with
    | Some v -> t.repeat s file ~src ~req v
    | None -> false
  in
  if answered then ()
  else if not (busy t file) then t.start s file ~src ~req data
  else if not (duplicate t file ~src ~req) then
    File_gate.wait t.gate file { q_server = s; q_src = src; q_req = req; q_data = data }

let answer t file ~id holder =
  match File_gate.holder t.gate file with
  | r when Int.equal r.id id && Host_id.Set.mem holder r.waiting ->
    r.waiting <- Host_id.Set.remove holder r.waiting;
    t.release r.server file holder ~approved:true;
    if tracing t then begin
      emit t
        (Trace.Event.Approval_reply
           { write = id; file = File_id.to_int file; holder = Host_id.to_int holder });
      emit t
        (Trace.Event.Lease_release
           {
             file = File_id.to_int file;
             holder = Host_id.to_int holder;
             cause = Trace.Event.Approved;
           })
    end;
    finish t r
  | _ | (exception Not_found) -> ()

let asking t file holder =
  match File_gate.holder t.gate file with
  | r -> Host_id.Set.mem holder r.waiting
  | exception Not_found -> false

let reset t =
  File_gate.iter
    (fun r ->
      cancel_deadline r;
      cancel_retry r)
    t.gate;
  File_gate.reset t.gate;
  Answers.reset t.answers

let rounds t = File_gate.held_files t.gate
let queued t = File_gate.waiters t.gate
let queued_files t = File_gate.waiting_files t.gate
