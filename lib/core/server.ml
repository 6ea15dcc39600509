open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id

(* The term policy, resolved once when the server is created; see
   [term_rule]. *)
type term_rule =
  | Fixed_term of Lease.term * Lease.grant option
      (** a term that depends on nothing, and the lease every line granted
          at it carries ([None] for the zero term, which grants none) *)
  | Per_line of (Host_id.t -> File_id.t -> now:Time.t -> Lease.term)

(* The float fields of a [lease-grant] trace event, as computed for one
   term at one server instant (the expiry follows from the two). *)
type grant_floats = {
  f_term : Lease.term;
  f_now : Time.t;
  term_s : float option;
  expiry_s : float option;
  now_s : float;
}

type t = {
  engine : Engine.t;
  clock : Clock.t;
  net : Messages.payload Netsim.Net.t;
  host : Host_id.t;
  clients : Host_id.t list;
  store : Vstore.Store.t;
  wal : Vstore.Wal.t;
  config : Config.t;
  messages : Messages.tally;
  mutable callbacks_sent : int;
  mutable commits : int;
  write_wait : Stats.Histogram.t;
  tracker : Term_policy.Tracker.t option;
  term : term_rule;
  tracer : Trace.Sink.t;
  on_commit : Vstore.File_id.t -> Vstore.Version.t -> unit;
  mutable last_lease : Lease.grant option;
      (** the lease of the last line granted at a per-line or installed
          term; see [lease_of_term] *)
  mutable last_floats : grant_floats;  (** see [grant_floats]; read only when tracing *)
  (* --- volatile state, reset by the crash hook --- *)
  leases : Lease_table.t;
  writes : (t, unit, Vstore.Version.t) Approval.t;
      (** pending and queued writes, and committed ones by (writer, request) *)
  mutable recovery_end : Time.t;  (** server-local; writes wait at least until here *)
  mutable recovered_at : Time.t;  (** server-local instant of last recovery *)
  installed_set : File_id.Set.t;
  mutable installed_suspended : File_id.Set.t;
  mutable installed_cover : Time.t File_id.Map.t;
  (** server-local expiry of the latest installed coverage per file *)
  mutable refresh_timer : Engine.handle option;
  mutable sweep_timer : Clock.timer option;
  mutable up : bool;
  mutable obs : Breakdown.t option;
      (** per-entity hot-counter breakdowns; attached only while telemetry
          samples, so every bump site below is guarded like a trace emit *)
}

let count_msg t payload = Messages.count t.messages (Messages.category payload)

let send t ~dst payload =
  count_msg t payload;
  Netsim.Net.send t.net ~src:t.host ~dst payload

let multicast t ~dsts payload =
  count_msg t payload;
  Netsim.Net.multicast t.net ~src:t.host ~dsts payload

let local_now t = Clock.now t.clock

(* Tracing helpers.  Every [emit] call site is guarded on [tracing t] so
   the disabled path never allocates the event payload. *)
let tracing t = Trace.Sink.enabled t.tracer
let emit t ev = Trace.Sink.emit t.tracer (Time.to_sec (Engine.now t.engine)) ev

(* Cost-center probe, guarded like [emit]: one load and one branch when the
   engine carries no profiler. *)
let profile_mark t center =
  let p = Engine.profiler t.engine in
  if Profile.Recorder.enabled p then Profile.Recorder.mark p center
let local_sec t = Time.to_sec (local_now t)

let term_sec = function
  | Lease.Finite span -> Some (Time.Span.to_sec span)
  | Lease.Infinite -> None

let is_installed t file = File_id.Set.mem file t.installed_set

let live_leases t file = Lease_table.live_holders t.leases file ~now:(local_now t)

(* Asked once per granted file; writes are rare next to grants, so the
   common answer comes from one count without a probe. *)
let has_pending_write t file = Approval.busy t.writes file

let recovering t = Time.(local_now t < t.recovery_end)

(* The server-local instant before which a write to [file] may not commit
   because of crash recovery. *)
let recovery_deadline t file =
  match Vstore.Wal.mode t.wal with
  | Vstore.Wal.Max_term_only -> t.recovery_end
  | Vstore.Wal.Detailed ->
    Time.add t.recovered_at (Vstore.Wal.recovery_wait_for t.wal file ~recovered_at:t.recovered_at)

(* Latest server-local expiry of installed coverage over [file]: the last
   multicast refresh or individual grant that covered it. *)
let installed_coverage_end t file =
  match File_id.Map.find_opt file t.installed_cover with
  | Some until -> until
  | None -> Time.zero

let note_installed_cover t file ~until =
  let known = installed_coverage_end t file in
  if Time.(until > known) then t.installed_cover <- File_id.Map.add file until t.installed_cover

(* ------------------------------------------------------------------ *)
(* Periodic lease-table sweep                                          *)

(* Reap idle files' expired records on a fixed server-clock cadence, so the
   table's footprint tracks live leases even for files nothing touches
   again.  The timer is a [Clock] local timer on purpose: reaping compares
   server-local expiries against the server's own clock, so driving it from
   the same clock keeps a sweep's verdict identical to the verdict the next
   grant-path reap check would reach — drift or steps merely move both
   together.  The reap itself is idempotent and semantically invisible, so
   sweep cadence cannot perturb protocol behaviour (tested).

   The timer is lazy — armed when a finite-expiry record lands in an idle
   table, re-armed after a sweep only while something resident can still
   expire — and its engine events are marked daemon, so background reaping
   neither keeps a run-to-quiescence simulation alive nor extends its end
   time past the last piece of real work. *)
let rec run_sweep t =
  match t.config.Config.lease_sweep_interval with
  | None -> ()
  | Some interval ->
    let fire () =
      profile_mark t Profile.Center.Server_expiry;
      if t.up then begin
        if Lease_table.sweep t.leases ~now:(local_now t) then run_sweep t
        else t.sweep_timer <- None
      end
    in
    t.sweep_timer <-
      Some (Clock.schedule_at_local t.clock ~daemon:true (Time.add (local_now t) interval) fire)

(* ------------------------------------------------------------------ *)
(* Granting                                                            *)

let record_lease t file holder expiry ~now =
  Lease_table.record t.leases file holder expiry ~now;
  match t.sweep_timer with
  | None when not (Lease.is_never expiry) -> run_sweep t
  | Some _ | None -> ()

(* The lease a line granted at a per-line or installed term carries,
   shared by every such line whose term equals the last one granted.
   Leases are immutable, so a value serves every line at its term, and a
   new term allocates once. *)
let lease_of_term t term =
  match t.last_lease with
  | Some { Lease.term = last } as lease when last == term || Lease.compare_term last term = 0 ->
    lease
  | Some _ | None ->
    let lease = Some { Lease.term } in
    t.last_lease <- lease;
    lease

(* The term policy resolved once, when the server is created.  A policy
   whose term depends on nothing — zero, infinite, or fixed without
   [term_compensation] — is one preallocated term and the one lease value
   that every line granted at it carries, so a line costs no term, no
   lease and no holder count; the table's reap check then runs inside
   [record].  Every other policy is a function [grant_for] calls per line:
   it counts the file's live holders (reaping first), asks the policy, and
   compensates a distant client for the transit its grant loses. *)
let term_rule (config : Config.t) ~leases ~tracker =
  let fixed term =
    Fixed_term (term, if Lease.term_is_zero term then None else Some { Lease.term })
  in
  match config.term_policy, config.term_compensation with
  | Term_policy.Zero, _ -> fixed Lease.term_zero
  | Term_policy.Infinite, _ -> fixed Lease.Infinite
  | Term_policy.Fixed span, None -> fixed (Lease.Finite span)
  | (Term_policy.Fixed _ | Term_policy.Adaptive _), compensation ->
    Per_line
      (fun holder file ~now ->
        (* O(1) after the table's reap check: post-reap resident = live. *)
        let holders = Lease_table.live_count leases file ~now in
        let term =
          Term_policy.term_for config.term_policy ~tracker ~file ~now ~holders:(holders + 1)
        in
        match term, compensation with
        | Lease.Finite span, Some compensation when not (Lease.term_is_zero term) ->
          Lease.Finite (Time.Span.add span (Time.Span.clamp_non_negative (compensation holder)))
        | (Lease.Finite _ | Lease.Infinite), _ -> term)

(* The server expiry of every line of one request granted at a
   [Fixed_term], resolved once per request from the server instant [now]
   ([Lease.never], and unused, under any other rule). *)
let fixed_expiry t ~now =
  match t.term with
  | Fixed_term (term, Some _) -> Lease.server_expiry term ~granted_at:now
  | Fixed_term (_, None) | Per_line _ -> Lease.never

(* The trace floats of a grant, shared by every traced line whose term is
   physically the last one's and whose instant is the same: under a term
   that depends on nothing, one batch boxes its floats once instead of
   three times per line. *)
let grant_floats t term ~now ~expiry =
  let f = t.last_floats in
  if f.f_term == term && Time.equal f.f_now now then f
  else begin
    let f =
      {
        f_term = term;
        f_now = now;
        term_s = term_sec term;
        expiry_s = Lease.expiry_sec expiry;
        now_s = Time.to_sec now;
      }
    in
    t.last_floats <- f;
    f
  end

(* Record one granted line at [term], whose server expiry is [expiry]: one
   table write, the trace event and the WAL update. *)
let grant_line t ~holder ~renewal ~now file term expiry =
  record_lease t file holder expiry ~now;
  if tracing t then begin
    let f = grant_floats t term ~now ~expiry in
    emit t
      (Trace.Event.Lease_grant
         {
           file = File_id.to_int file;
           holder = Host_id.to_int holder;
           term_s = f.term_s;
           server_expiry = f.expiry_s;
           server_now = f.now_s;
           renewal;
         })
  end;
  match term with
  | Lease.Finite span -> Vstore.Wal.record_grant t.wal file ~term:span ~expiry:(Time.add now span)
  | Lease.Infinite -> ()

(* The lease one line carries, [None] when it grants none; the caller
   reads the line's version.  [now] is the server clock, read once per
   request, and [fixed] is [fixed_expiry] at [now].  Under a [Fixed_term]
   a line allocates nothing and computes no term, lease or expiry of its
   own: its lease is the rule's value and its expiry the request's, so
   recording it is one table write and a WAL update. *)
let grant_for t ~holder ~renewal ~now ~fixed file : Lease.grant option =
  if has_pending_write t file then None
  else if is_installed t file then begin
    match t.config.installed with
    | Some { term; _ } when not (File_id.Set.mem file t.installed_suspended) ->
      (* Individual grant over an installed file: same term as the refresh,
         no per-client record — only the coverage horizon moves. *)
      let until = Time.add now term in
      note_installed_cover t file ~until;
      if tracing t then
        emit t
          (Trace.Event.Installed_cover
             { file = File_id.to_int file; until = Time.to_sec until });
      Vstore.Wal.record_grant t.wal file ~term ~expiry:until;
      lease_of_term t (Lease.Finite term)
    | Some _ | None -> None
  end
  else
    match t.term with
    | Fixed_term (_, None) -> None
    | Fixed_term (term, lease) ->
      grant_line t ~holder ~renewal ~now file term fixed;
      lease
    | Per_line term_of ->
      let term = term_of holder file ~now in
      if Lease.term_is_zero term then None
      else begin
        grant_line t ~holder ~renewal ~now file term (Lease.server_expiry term ~granted_at:now);
        lease_of_term t term
      end

(* ------------------------------------------------------------------ *)
(* Write processing                                                    *)

(* Serve a write no other write holds back: commit at once, or open the
   file's approval round.  The writer's own lease is invalidated by the
   implicit approval carried on its write request. *)
let start_write t file ~src:writer ~req () =
  let now = local_now t in
  (match t.tracker with
  | Some tracker -> Term_policy.Tracker.note_write tracker file ~now
  | None -> ());
  let recovery = recovery_deadline t file in
  let lease_deadline, holders =
    if is_installed t file then begin
      (* Drop the file from future refreshes and wait out the coverage. *)
      t.installed_suspended <- File_id.Set.add file t.installed_suspended;
      let coverage = installed_coverage_end t file in
      (Lease.at (Time.max coverage recovery), Host_id.Set.empty)
    end
    else begin
      Lease_table.remove_holder t.leases file writer;
      if tracing t then
        emit t
          (Trace.Event.Lease_release
             {
               file = File_id.to_int file;
               holder = Host_id.to_int writer;
               cause = Trace.Event.Writer_self;
             });
      Lease_table.write_snapshot t.leases file ~now ~init:(Lease.at recovery)
    end
  in
  let ask = t.config.callback_on_write in
  if Lease.expired lease_deadline ~now && ((not ask) || Host_id.Set.is_empty holders) then
    Approval.commit_now t.writes t file ~src:writer ~req ()
  else begin
    (match t.obs with
    | Some o ->
      Breakdown.bump o.Breakdown.write_waits_by_file (File_id.to_int file);
      Breakdown.bump o.Breakdown.write_waits_by_client (Host_id.to_int writer)
    | None -> ());
    Approval.wait t.writes t file ~src:writer ~req () ~holders ~ask ~deadline:lease_deadline
  end

let ask_approval t file ~id holders =
  t.callbacks_sent <- t.callbacks_sent + 1;
  let request = Messages.Approval_request { write = id; file } in
  if t.config.Config.approval_multicast then multicast t ~dsts:holders request
  else List.iter (fun dst -> send t ~dst request) holders

(* An approval invalidates the holder's copy, so its lease record goes
   too; a holder abandoned at the deadline has no live lease left. *)
let release_holder t file holder ~approved =
  if approved then begin
    (match t.obs with
    | Some o ->
      Breakdown.bump o.Breakdown.approvals_by_file (File_id.to_int file);
      Breakdown.bump o.Breakdown.approvals_by_client (Host_id.to_int holder)
    | None -> ());
    Lease_table.remove_holder t.leases file holder
  end

let commit_write t file ~src:writer ~req () ~id:write_id ~started:arrived =
  let version = Vstore.Store.commit t.store file ~at:(Engine.now t.engine) in
  t.on_commit file version;
  let waited = Time.Span.to_sec (Time.diff (Engine.now t.engine) arrived) in
  Stats.Histogram.add t.write_wait waited;
  t.commits <- t.commits + 1;
  if tracing t then
    emit t
      (Trace.Event.Commit
         {
           write = write_id;
           op = req;
           file = File_id.to_int file;
           writer = Host_id.to_int writer;
           version = Vstore.Version.to_int version;
           server_now = local_sec t;
           waited_s = waited;
         });
  (* Any remaining lease records on the file are stale (approved holders
     were removed as they replied; the rest expired). *)
  Lease_table.drop_file t.leases file;
  if is_installed t file then begin
    t.installed_suspended <- File_id.Set.remove file t.installed_suspended;
    t.installed_cover <- File_id.Map.remove file t.installed_cover
  end;
  send t ~dst:writer (Messages.Write_reply { req; file; version });
  version

(* A duplicate of a committed write is answered again, not re-applied. *)
let reply_again t file ~src ~req version =
  send t ~dst:src (Messages.Write_reply { req; file; version });
  true

(* ------------------------------------------------------------------ *)
(* Reads and extensions                                                *)

let note_read t file ~now =
  match t.tracker with
  | Some tracker -> Term_policy.Tracker.note_read tracker file ~now
  | None -> ()

let handle_read t ~src ~req file =
  let now = local_now t in
  note_read t file ~now;
  (match t.obs with
  | Some o ->
    Breakdown.bump o.Breakdown.reads_by_file (File_id.to_int file);
    Breakdown.bump o.Breakdown.reads_by_client (Host_id.to_int src)
  | None -> ());
  let version = Vstore.Store.current t.store file in
  let fixed = fixed_expiry t ~now in
  let lease = grant_for t ~holder:src ~renewal:false ~now ~fixed file in
  send t ~dst:src (Messages.Read_reply { req; file; version; lease })

(* One batch, one pass by index: line [i] of the reply answers [files.(i)],
   and the reply shares [files] itself.  The reply allocates its two
   arrays and its own block, whatever its line count.  The leases array
   starts filled with the lease a line granted at a [Fixed_term] carries
   ([None] under any other rule), so only a line that differs from it —
   one that grants nothing, or one at a per-line or installed term — is
   written, and a line pays no write barrier. *)
let handle_extend t ~src ~req files =
  (match t.obs with
  | Some o ->
    Breakdown.bump o.Breakdown.extensions_by_client (Host_id.to_int src);
    Array.iter
      (fun file -> Breakdown.bump o.Breakdown.extensions_by_file (File_id.to_int file))
      files
  | None -> ());
  let now = local_now t in
  let fixed = fixed_expiry t ~now in
  let n = Array.length files in
  let versions = Array.make n Vstore.Version.initial in
  let fill = match t.term with Fixed_term (_, lease) -> lease | Per_line _ -> None in
  let leases = Array.make n fill in
  for i = 0 to n - 1 do
    let file = Array.unsafe_get files i in
    note_read t file ~now;
    Array.unsafe_set versions i (Vstore.Store.current t.store file);
    let lease = grant_for t ~holder:src ~renewal:true ~now ~fixed file in
    if lease != fill then Array.unsafe_set leases i lease
  done;
  send t ~dst:src (Messages.Extend_reply { req; files; versions; leases })

(* ------------------------------------------------------------------ *)
(* Installed-file refresh                                              *)

let rec run_refresh t =
  match t.config.installed with
  | None -> ()
  | Some { files; period; term } ->
    profile_mark t Profile.Center.Server_expiry;
    if t.up then begin
      let covered =
        List.filter
          (fun file ->
            (not (File_id.Set.mem file t.installed_suspended)) && not (has_pending_write t file))
          files
      in
      if covered <> [] then begin
        let now = local_now t in
        let until = Time.add now term in
        let with_versions =
          List.map
            (fun file ->
              note_installed_cover t file ~until;
              if tracing t then
                emit t
                  (Trace.Event.Installed_cover
                     { file = File_id.to_int file; until = Time.to_sec until });
              Vstore.Wal.record_grant t.wal file ~term ~expiry:until;
              (file, Vstore.Store.current t.store file))
            covered
        in
        multicast t ~dsts:t.clients (Messages.Installed_refresh { covered = with_versions; term })
      end;
      t.refresh_timer <- Some (Engine.schedule_after t.engine period (fun () -> run_refresh t))
    end

(* ------------------------------------------------------------------ *)
(* Message dispatch and lifecycle                                      *)

let handle_message t (envelope : Messages.payload Netsim.Net.envelope) =
  if t.up then begin
    profile_mark t
      (match envelope.payload with
      | Messages.Write_request _ | Messages.Approval_reply _ -> Profile.Center.Server_write
      | _ -> Profile.Center.Server_grant);
    count_msg t envelope.payload;
    match envelope.payload with
    | Messages.Read_request { req; file } -> handle_read t ~src:envelope.src ~req file
    | Messages.Extend_request { req; files } -> handle_extend t ~src:envelope.src ~req files
    | Messages.Write_request { req; file } ->
      Approval.submit t.writes t file ~src:envelope.src ~req ()
    | Messages.Approval_reply { write; file } ->
      Approval.answer t.writes file ~id:write envelope.src
    | Messages.Read_reply _ | Messages.Extend_reply _ | Messages.Write_reply _
    | Messages.Approval_request _ | Messages.Installed_refresh _ ->
      (* Client-bound traffic misdelivered to the server: drop. *)
      ()
  end

let on_crash t =
  t.up <- false;
  Lease_table.clear t.leases;
  Approval.reset t.writes;
  t.installed_suspended <- File_id.Set.empty;
  t.installed_cover <- File_id.Map.empty;
  (match t.refresh_timer with Some h -> Engine.cancel h | None -> ());
  t.refresh_timer <- None;
  (match t.sweep_timer with Some h -> Clock.cancel_timer h | None -> ());
  t.sweep_timer <- None

let on_recover t =
  t.up <- true;
  let now = local_now t in
  t.recovered_at <- now;
  t.recovery_end <- Time.add now (Vstore.Wal.max_term t.wal);
  (* the lease table is empty after a crash; the sweep re-arms lazily on
     the first finite grant *)
  run_refresh t

let create ~engine ~clock ~net ~liveness ~host ~clients ~store ~config
    ?(on_commit = fun _ _ -> ()) ?(tracer = Trace.Sink.null) () =
  Config.validate config;
  let tracker =
    match config.Config.term_policy with
    | Term_policy.Adaptive a -> Some (Term_policy.Tracker.create a)
    | Term_policy.Zero | Term_policy.Fixed _ | Term_policy.Infinite -> None
  in
  let installed_set =
    match config.Config.installed with
    | Some { files; _ } -> File_id.Set.of_list files
    | None -> File_id.Set.empty
  in
  let leases = Lease_table.create () in
  let term = term_rule config ~leases ~tracker in
  let t =
    {
      engine;
      clock;
      net;
      host;
      clients;
      store;
      wal = Vstore.Wal.create config.Config.wal_mode;
      config;
      messages = Messages.tally ();
      callbacks_sent = 0;
      commits = 0;
      write_wait = Stats.Histogram.create ();
      tracker;
      term;
      tracer;
      on_commit;
      last_lease = None;
      last_floats =
        { f_term = Lease.Infinite; f_now = Time.zero; term_s = None; expiry_s = None; now_s = 0. };
      leases;
      (* Write ids are globally unique across shards: the server's host
         index occupies the high bits (host 0 — the single-server layout —
         keeps ids 0,1,2,... unchanged), so approval correlation ids in
         traces never collide between servers.  PRNG-free.  A write whose
         approvals are all in waits out the post-crash quiet period. *)
      writes =
        Approval.create ~engine ~clock ~tracer ~id_origin:(Host.Host_id.to_int host lsl 32)
          ~start:start_write ~ask:ask_approval ~release:release_holder ~commit:commit_write
          ~repeat:reply_again ~hold:recovery_deadline ();
      recovery_end = Time.zero;
      recovered_at = Time.zero;
      installed_set;
      installed_suspended = File_id.Set.empty;
      installed_cover = File_id.Map.empty;
      refresh_timer = None;
      sweep_timer = None;
      up = true;
      obs = None;
    }
  in
  (* Reaps emit [lease-expire] so the trace checker can forget the record
     exactly when the server does — without this, a backwards server-clock
     step would leave the checker holding leases the server reaped, and
     legitimate commits would read as commit-vs-lease violations. *)
  Lease_table.set_on_reap t.leases (fun file holder expiry ->
      if tracing t then
        emit t
          (Trace.Event.Lease_expire
             {
               file = File_id.to_int file;
               holder = Host_id.to_int holder;
               expired_at = Lease.expiry_sec expiry;
             }));
  Netsim.Net.register net host (handle_message t);
  Host.Liveness.register liveness host ~on_crash:(fun () -> on_crash t)
    ~on_recover:(fun () -> on_recover t) ();
  run_refresh t;
  t

let host t = t.host
let store t = t.store
let wal t = t.wal
let clock t = t.clock

type snapshot = {
  lease_files : int;
  lease_records : int;
  pending_writes : int;
  queued_writes : int;
  queued_files : int;
  recovering : bool;
  up : bool;
}

let snapshot t =
  let occ = Lease_table.occupancy t.leases ~now:(local_now t) in
  {
    lease_files = occ.Lease_table.files;
    lease_records = occ.Lease_table.records;
    pending_writes = Approval.rounds t.writes;
    queued_writes = Approval.queued t.writes;
    queued_files = Approval.queued_files t.writes;
    recovering = recovering t;
    up = t.up;
  }

let set_breakdown t obs = t.obs <- obs
let breakdown t = t.obs

let messages t = t.messages
let callbacks_sent t = t.callbacks_sent
let commits t = t.commits
let write_wait t = t.write_wait

let counters =
  [|
    ("callbacks-sent", callbacks_sent);
    ("commits", commits);
    ("msgs/approval", fun t -> t.messages.approval);
    ("msgs/extension", fun t -> t.messages.extension);
    ("msgs/installed", fun t -> t.messages.installed);
    ("msgs/write-transfer", fun t -> t.messages.write_transfer);
  |]
