open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id

type read_result = {
  r_version : Vstore.Version.t;
  r_latency : Time.Span.t;
  r_from_cache : bool;
}

type write_result = { w_version : Vstore.Version.t; w_latency : Time.Span.t }

type entry = {
  mutable version : Vstore.Version.t;
  mutable expiry : Lease.expiry;  (** on the client's clock *)
  mutable renewal_timer : Clock.timer option;
}

type rpc_kind =
  | Rpc_read of { file : File_id.t; k : read_result -> unit }
  | Rpc_renewal  (** anticipatory extension; nobody waits on it *)
  | Rpc_write of { file : File_id.t; k : write_result -> unit }

type rpc = {
  req : Messages.req_id;
  started : Time.t;  (** engine time *)
  kind : rpc_kind;
  message : Messages.payload;  (** retransmitted verbatim *)
  dst : Host_id.t;  (** the server this RPC targets (fixed for its lifetime) *)
  mutable tries : int;  (** retransmissions so far; drives the backoff *)
  mutable timer : Engine.handle option;
}

(* Operations waiting for an in-flight RPC on the same file. *)
type queued_op =
  | Q_read of (read_result -> unit)
  | Q_write of (write_result -> unit)

(* Sentinel "nothing cached can expire" (Time is microseconds in an int63). *)
let horizon = Time.of_us max_int

type t = {
  engine : Engine.t;
  clock : Clock.t;
  net : Messages.payload Netsim.Net.t;
  host : Host_id.t;
  route : File_id.t -> Host_id.t;
      (** file -> owning server host; constant [server] outside sharded
          deployments *)
  rng : Prng.Splitmix.t option;  (** retransmission jitter; [None] = no jitter *)
  config : Config.t;
  counters : Stats.Counter.Registry.t;
  (* Hot counters resolved once at creation: the registry stays the source
     of truth for dumps, but per-operation sites must not pay a string-hash
     lookup per bump. *)
  c_hits : Stats.Counter.t;
  c_misses : Stats.Counter.t;
  c_retransmissions : Stats.Counter.t;
  c_evictions : Stats.Counter.t;
  c_renewals_sent : Stats.Counter.t;
  c_fallback_reads : Stats.Counter.t;
  c_approvals_answered : Stats.Counter.t;
  tracer : Trace.Sink.t;
  (* --- volatile state, reset by the crash hook --- *)
  cache : entry File_id.Tbl.t;
  mutable files_sorted : File_id.t list option;
      (** memoized [cached_files]; invalidated on cache membership change *)
  mutable rpcs : rpc list;
      (** in-flight RPCs, newest first.  Per-file serialisation keeps this
          to one entry per busy file — a handful at most — so a list scan
          on the reply path beats hashing the request id. *)
  busy : unit File_id.Tbl.t;  (** files with a primary RPC in flight *)
  op_queue : queued_op Queue.t File_id.Tbl.t;
  renewals_in_flight : unit Host_id.Tbl.t;
      (** servers with an anticipatory extension outstanding *)
  mutable next_req : int;
  mutable evict_next : Time.t;
      (** lower bound on the earliest local expiry among cached entries
          (horizon sentinel = nothing can expire); drives amortized
          eviction of long-dead entries from the miss path *)
  mutable up : bool;
}


let host t = t.host
let clock t = t.clock
let local_now t = Clock.now t.clock

(* Tracing helpers; every [emit] site is guarded on [tracing t] so the
   disabled path never allocates the event payload. *)
let tracing t = Trace.Sink.enabled t.tracer
let emit t ev = Trace.Sink.emit t.tracer (Time.to_sec (Engine.now t.engine)) ev

(* Cost-center probe, guarded like [emit]: one load and one branch when the
   engine carries no profiler. *)
let profile_mark t center =
  let p = Engine.profiler t.engine in
  if Profile.Recorder.enabled p then Profile.Recorder.mark p center

let expiry_sec = function Lease.At at -> Some (Time.to_sec at) | Lease.Never -> None

let emit_client_lease t file (entry : entry) =
  emit t
    (Trace.Event.Client_lease
       {
         host = Host_id.to_int t.host;
         file = File_id.to_int file;
         version = Vstore.Version.to_int entry.version;
         expiry = expiry_sec entry.expiry;
         local_now = Time.to_sec (local_now t);
       })

let holds_valid_lease t file =
  match File_id.Tbl.find_opt t.cache file with
  | Some entry -> not (Lease.expired entry.expiry ~now:(local_now t))
  | None -> false

let cached_version t file = Option.map (fun e -> e.version) (File_id.Tbl.find_opt t.cache file)
let cache_size t = File_id.Tbl.length t.cache
let inflight_rpcs t = List.length t.rpcs
let queued_ops t = File_id.Tbl.fold (fun _ q acc -> acc + Queue.length q) t.op_queue 0

(* ------------------------------------------------------------------ *)
(* RPC plumbing                                                        *)

let send_to t ~dst payload = Netsim.Net.send t.net ~src:t.host ~dst payload

(* Exponential backoff with jitter.  The k-th retransmission waits
   [retry_interval * 2^k] capped at [retry_max_interval]; when the client
   has a PRNG the wait is scaled by a uniform factor in [0.5, 1.5), so that
   clients whose RPCs all failed at the same instant (a server crash) do
   not retry in lockstep forever — the recovering server sees the herd
   spread over the backoff window instead of in one burst. *)
let retry_delay t rpc =
  let doublings = Int.min rpc.tries 20 in
  let base = Time.Span.scale (Float.of_int (1 lsl doublings)) t.config.retry_interval in
  let capped = Time.Span.min base t.config.retry_max_interval in
  match t.rng with
  | Some rng -> Time.Span.scale (0.5 +. Prng.Splitmix.float rng) capped
  | None -> capped

let rec arm_retry t rpc =
  let fire () =
    profile_mark t Profile.Center.Client_op;
    if t.up && List.memq rpc t.rpcs then begin
      Stats.Counter.incr t.c_retransmissions;
      rpc.tries <- rpc.tries + 1;
      send_to t ~dst:rpc.dst rpc.message;
      arm_retry t rpc
    end
  in
  rpc.timer <- Some (Engine.schedule_after t.engine (retry_delay t rpc) fire)

let start_rpc t ~dst kind message =
  let req =
    match message with
    | Messages.Read_request { req; _ } | Messages.Extend_request { req; _ }
    | Messages.Write_request { req; _ } ->
      req
    | Messages.Read_reply _ | Messages.Extend_reply _ | Messages.Write_reply _
    | Messages.Approval_request _ | Messages.Approval_reply _ | Messages.Installed_refresh _ ->
      invalid_arg "Client.start_rpc: not a request"
  in
  let rpc = { req; started = Engine.now t.engine; kind; message; dst; tries = 0; timer = None } in
  t.rpcs <- rpc :: t.rpcs;
  send_to t ~dst message;
  arm_retry t rpc

let finish_rpc t rpc =
  (match rpc.timer with Some h -> Engine.cancel h | None -> ());
  t.rpcs <- List.filter (fun r -> not (r == rpc)) t.rpcs

let find_rpc t req =
  let rec go = function
    | [] -> None
    | rpc :: rest -> if rpc.req = req then Some rpc else go rest
  in
  go t.rpcs

let fresh_req t =
  let req = t.next_req in
  t.next_req <- t.next_req + 1;
  req

(* ------------------------------------------------------------------ *)
(* Cache maintenance                                                   *)

let cancel_renewal entry =
  match entry.renewal_timer with
  | Some h ->
    Clock.cancel_timer h;
    entry.renewal_timer <- None
  | None -> ()

(* Track the earliest local expiry anywhere in the cache.  Called at every
   [entry.expiry] assignment; the bound only ever moves down here and is
   recomputed exactly by an eviction pass, mirroring the server table's
   per-file [min_next]. *)
let note_expiry t = function
  | Lease.At at -> if Time.(at < t.evict_next) then t.evict_next <- at
  | Lease.Never -> ()

(* Amortized eviction of long-dead cache entries, run from the miss path.
   An entry whose lease lapsed is protocol-inert — it never serves a read —
   but it used to live forever unless an invalidation or a crash happened
   to remove it, so a long Zipf run grew [t.cache] without bound.  A pass
   triggers only once the {e oldest} expiry is a full
   [cache_eviction_grace] behind the client's clock, evicts every entry at
   least that stale, and recomputes the bound exactly; between passes a
   miss pays one comparison.  The grace keeps recently-lapsed versions
   around for the common quick re-read (the server refreshes rather than
   re-transfers), while the cache tracks the live working set.  Files with
   an RPC in flight are skipped — their entry is about to be rewritten by
   the reply.  Eviction rides on client activity by design: a timer-driven
   sweep would keep the engine's event queue non-empty and drag every
   run-to-quiescence simulation out by whole grace periods. *)
let maybe_evict t =
  match t.config.Config.cache_eviction_grace with
  | None -> ()
  | Some grace ->
    let now = local_now t in
    if Time.(t.evict_next < horizon) && Time.(Time.add t.evict_next grace <= now) then begin
      let cutoff = Time.add now (Time.Span.neg grace) in
      let min_next = ref horizon in
      let victims =
        File_id.Tbl.fold
          (fun file entry acc ->
            if (not (File_id.Tbl.mem t.busy file)) && Lease.expired entry.expiry ~now:cutoff then
              (file, entry) :: acc
            else begin
              (match entry.expiry with
              | Lease.At at -> if Time.(at < !min_next) then min_next := at
              | Lease.Never -> ());
              acc
            end)
          t.cache []
        (* hash order must not leak into counters or the trace stream *)
        |> List.sort (fun (a, _) (b, _) -> File_id.compare a b)
      in
      if victims <> [] then begin
        List.iter
          (fun (file, entry) ->
            cancel_renewal entry;
            File_id.Tbl.remove t.cache file;
            Stats.Counter.incr t.c_evictions;
            if tracing t then
              emit t
                (Trace.Event.Cache_invalidate
                   { host = Host_id.to_int t.host; file = File_id.to_int file }))
          victims;
        t.files_sorted <- None
      end;
      t.evict_next <- !min_next
    end

let add_entry t file =
  let entry = { version = Vstore.Version.initial; expiry = Lease.At Time.zero; renewal_timer = None } in
  File_id.Tbl.add t.cache file entry;
  t.files_sorted <- None;
  note_expiry t entry.expiry;
  entry

let entry_for t file =
  match File_id.Tbl.find t.cache file with
  | entry -> entry
  | exception Not_found -> add_entry t file

let invalidate t file =
  match File_id.Tbl.find_opt t.cache file with
  | Some entry ->
    cancel_renewal entry;
    File_id.Tbl.remove t.cache file;
    t.files_sorted <- None;
    if tracing t then
      emit t
        (Trace.Event.Cache_invalidate
           { host = Host_id.to_int t.host; file = File_id.to_int file })
  | None -> ()

(* Everything in the cache, lease live or lapsed: an extension request may
   renew a lapsed lease (the server refreshes the version if the datum
   changed), and the paper's batching advice is to extend "all leases over
   all files that it still holds".  Memoized: batched reads and renewals
   consult this on every operation, while membership changes rarely. *)
let cached_files t =
  match t.files_sorted with
  | Some files -> files
  | None ->
    let files =
      File_id.Tbl.fold (fun file _ acc -> file :: acc) t.cache [] |> List.sort File_id.compare
    in
    t.files_sorted <- Some files;
    files

(* Renew every held lease in one batched extension per owning server with
   no waiting read — the anticipatory option of Section 4.  One renewal
   covers every cached file routed to that server, so when many per-entry
   timers fire at the same instant only the first sends; the reply re-arms
   them all.  The in-flight guard is per server: a slow shard must not
   starve renewals toward the others. *)
let rec send_renewal t =
  profile_mark t Profile.Center.Client_renewal;
  if t.up then begin
    let groups = Host_id.Tbl.create 4 in
    let order = ref [] in
    List.iter
      (fun file ->
        let dst = t.route file in
        match Host_id.Tbl.find_opt groups dst with
        | Some files -> Host_id.Tbl.replace groups dst (file :: files)
        | None ->
          order := dst :: !order;
          Host_id.Tbl.replace groups dst [ file ])
      (cached_files t);
    List.iter
      (fun dst ->
        if not (Host_id.Tbl.mem t.renewals_in_flight dst) then begin
          Stats.Counter.incr t.c_renewals_sent;
          Host_id.Tbl.replace t.renewals_in_flight dst ();
          let files = List.rev (Host_id.Tbl.find groups dst) in
          start_rpc t ~dst Rpc_renewal (Messages.Extend_request { req = fresh_req t; files })
        end)
      (List.rev !order)
  end

and arm_renewal t file entry =
  match t.config.anticipatory_renewal, entry.expiry with
  | Some lead, Lease.At expiry ->
    cancel_renewal entry;
    let renew_at_local = Time.add expiry (Time.Span.neg lead) in
    let fire () =
      if t.up && (match File_id.Tbl.find_opt t.cache file with Some e -> e == entry | None -> false)
      then send_renewal t
    in
    entry.renewal_timer <- Some (Clock.schedule_at_local t.clock renew_at_local fire)
  | Some _, Lease.Never | None, _ -> ()

let apply_grant_to t (line : Messages.grant_line) entry =
  (* Guard against resurrecting state that predates a write we already know
     about: server versions are monotone, so a grant carrying an older
     version was issued before that write and its lease died with it.  (The
     fixed-delay network delivers FIFO, so this cannot fire today; it is the
     locally checkable safety condition nonetheless.) *)
  if Vstore.Version.compare line.g_version entry.version < 0 then ()
  else begin
  entry.version <- line.g_version;
  let now = local_now t in
  (match line.g_lease with
  | Some grant ->
    entry.expiry <-
      Lease.client_expiry grant ~received_at:now ~transit_allowance:t.config.transit_allowance
        ~skew_allowance:t.config.skew_allowance
  | None ->
    (* No lease came back (zero term or a write is pending): make sure we
       do not keep trusting an older one. *)
    entry.expiry <- Lease.At now);
  note_expiry t entry.expiry;
  if tracing t then emit_client_lease t line.g_file entry;
  arm_renewal t line.g_file entry
  end

let apply_grant t (line : Messages.grant_line) =
  match File_id.Tbl.find t.cache line.g_file with
  | entry -> apply_grant_to t line entry
  | exception Not_found -> (
    match line.g_lease with
    | None ->
      (* The server answered but granted nothing (zero term, or a write in
         flight on the file) and we hold no copy.  There is nothing to serve
         and nothing to protect: inserting the entry anyway would book a
         never-leased probe as a cached file, permanently inflating
         [cache_size] and the telemetry occupancy series. *)
      ()
    | Some _ -> apply_grant_to t line (add_entry t line.g_file))

(* ------------------------------------------------------------------ *)
(* Operations

   A client serialises its own operations per file: while a read or write
   RPC on file f is in flight, further operations on f queue behind it.
   Without this, a read issued after a write (but completing first, e.g.
   because the write request was lost and retransmitted) can re-acquire a
   lease on the old version — which the server will then consider
   implicitly approved when the write finally lands, leaving the writer
   itself trusting stale data.  A real cache serialises file operations
   for the same reason. *)

let is_busy t file = File_id.Tbl.mem t.busy file

let enqueue_op t file op =
  let q =
    match File_id.Tbl.find_opt t.op_queue file with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      File_id.Tbl.replace t.op_queue file q;
      q
  in
  Queue.push op q

let rec read t file ~k =
  if not t.up then ()
  else if is_busy t file then enqueue_op t file (Q_read k)
  else begin
    match File_id.Tbl.find t.cache file with
    | entry when not (Lease.expired entry.expiry ~now:(local_now t)) ->
      Stats.Counter.incr t.c_hits;
      if tracing t then
        emit t
          (Trace.Event.Cache_hit
             {
               host = Host_id.to_int t.host;
               file = File_id.to_int file;
               version = Vstore.Version.to_int entry.version;
               local_now = Time.to_sec (local_now t);
             });
      k { r_version = entry.version; r_latency = Time.Span.zero; r_from_cache = true }
    | _ | (exception Not_found) ->
      Stats.Counter.incr t.c_misses;
      (* a miss is already a slow path: settle any long-overdue evictions
         before the piggyback list below is built from [cached_files] *)
      maybe_evict t;
      if tracing t then
        emit t
          (Trace.Event.Cache_miss { host = Host_id.to_int t.host; file = File_id.to_int file });
      File_id.Tbl.replace t.busy file ();
      let dst = t.route file in
      let req = fresh_req t in
      let message =
        match t.config.Config.batch_extension_limit with
        | Some 0 ->
          (* A zero cap disables piggybacking outright; skip building (and
             sorting) a candidate list that would only be thrown away. *)
          Messages.Read_request { req; file }
        | limit when t.config.batch_extensions -> begin
          (* Piggyback renewals only for files the same server owns: a
             batched extension is one RPC to one host. *)
          let others =
            List.filter
              (fun f -> (not (File_id.equal f file)) && Host_id.equal (t.route f) dst)
              (cached_files t)
          in
          let others =
            (* Cap the piggyback list: a client caching F files otherwise
               makes every miss carry O(F) renewal work to the server.
               Soonest-to-expire first — those renewals buy the most.
               Decorate once with the expiry so the sort does not pay a
               cache lookup per comparison. *)
            match limit with
            | Some limit when List.compare_length_with others limit > 0 ->
              let decorated =
                List.map
                  (fun f ->
                    let expiry =
                      match File_id.Tbl.find_opt t.cache f with
                      | Some { expiry = Lease.At at; _ } -> Time.to_sec at
                      | Some { expiry = Lease.Never; _ } | None -> Float.infinity
                    in
                    (expiry, f))
                  others
              in
              (* stable over the file-id-sorted input, so ties break by id *)
              List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) decorated
              |> List.filteri (fun i _ -> i < limit)
              |> List.map snd
            | Some _ | None -> others
          in
          match others with
          | [] -> Messages.Read_request { req; file }
          | _ -> Messages.Extend_request { req; files = file :: others }
        end
        | Some _ | None -> Messages.Read_request { req; file }
      in
      start_rpc t ~dst (Rpc_read { file; k }) message
  end

and write t file ~k =
  if not t.up then ()
  else if is_busy t file then enqueue_op t file (Q_write k)
  else begin
    (* The write request carries our implicit approval, and "when a
       leaseholder grants approval for a write, it invalidates its local
       copy" — that includes the writer itself: until the reply arrives the
       cached copy must not serve reads. *)
    invalidate t file;
    File_id.Tbl.replace t.busy file ();
    let req = fresh_req t in
    start_rpc t ~dst:(t.route file) (Rpc_write { file; k }) (Messages.Write_request { req; file })
  end

(* The in-flight operation on [file] finished: unblock the queue.  Queued
   reads may complete synchronously as cache hits, so keep draining until
   an operation goes back on the wire (marking the file busy) or the queue
   empties. *)
and release t file =
  File_id.Tbl.remove t.busy file;
  drain_queue t file

and drain_queue t file =
  (* queues exist only while same-file operations overlap — almost never —
     so the common release pays one length load, not a hash probe *)
  if File_id.Tbl.length t.op_queue > 0 && not (is_busy t file) then begin
    match File_id.Tbl.find_opt t.op_queue file with
    | Some q when not (Queue.is_empty q) ->
      (match Queue.pop q with
      | Q_read k -> read t file ~k
      | Q_write k -> write t file ~k);
      drain_queue t file
    | Some _ | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Message handling                                                    *)

let complete_read t rpc (granted : Messages.grant_line list) =
  List.iter (apply_grant t) granted;
  match rpc.kind with
  | Rpc_read { file; k } -> (
    finish_rpc t rpc;
    match List.find_opt (fun (g : Messages.grant_line) -> File_id.equal g.g_file file) granted with
    | Some line ->
      k
        {
          r_version = line.g_version;
          r_latency = Time.diff (Engine.now t.engine) rpc.started;
          r_from_cache = false;
        };
      release t file
    | None ->
      (* The server answered a different file list (possible after a
         retransmission raced a crash).  Fabricating a result from the
         cache here would complete the read with no lease and no server
         version — a reply-mismatch artifact the oracle would then book as
         protocol staleness — so re-issue the read instead.  The file stays
         busy, so queued operations keep their order. *)
      Stats.Counter.incr t.c_fallback_reads;
      start_rpc t ~dst:rpc.dst (Rpc_read { file; k })
        (Messages.Read_request { req = fresh_req t; file }))
  | Rpc_renewal ->
    Host_id.Tbl.remove t.renewals_in_flight rpc.dst;
    finish_rpc t rpc
  | Rpc_write _ -> ()

let handle_message t (envelope : Messages.payload Netsim.Net.envelope) =
  if t.up then begin
    profile_mark t Profile.Center.Client_handle;
    match envelope.payload with
    | Messages.Read_reply { req; granted } -> (
      match find_rpc t req with
      | Some rpc -> complete_read t rpc [ granted ]
      | None -> apply_grant t granted (* late duplicate: still fresh info *))
    | Messages.Extend_reply { req; granted } -> (
      match find_rpc t req with
      | Some rpc -> complete_read t rpc granted
      | None -> List.iter (apply_grant t) granted)
    | Messages.Write_reply { req; file; version } -> (
      match find_rpc t req with
      | Some ({ kind = Rpc_write { file = wfile; k }; _ } as rpc) when File_id.equal file wfile ->
        finish_rpc t rpc;
        (* Our own write completed: cache the new version, but with no
           lease — the next read revalidates with an extension request. *)
        let entry = entry_for t file in
        if Vstore.Version.compare version entry.version >= 0 then begin
          entry.version <- version;
          entry.expiry <- Lease.At (local_now t);
          note_expiry t entry.expiry
        end;
        if tracing t then emit_client_lease t file entry;
        k { w_version = version; w_latency = Time.diff (Engine.now t.engine) rpc.started };
        release t file
      | Some _ | None -> ())
    | Messages.Approval_request { write; file } ->
      Stats.Counter.incr t.c_approvals_answered;
      invalidate t file;
      (* Reply to whichever server asked — under sharding that is the
         file's owner, not necessarily our default server. *)
      send_to t ~dst:envelope.src (Messages.Approval_reply { write; file })
    | Messages.Installed_refresh { covered; term } ->
      let now = local_now t in
      List.iter
        (fun (file, version) ->
          match File_id.Tbl.find_opt t.cache file with
          | Some entry when Vstore.Version.equal entry.version version ->
            let refreshed =
              Lease.client_expiry { Lease.term = Lease.Finite term } ~received_at:now
                ~transit_allowance:t.config.transit_allowance
                ~skew_allowance:t.config.skew_allowance
            in
            entry.expiry <- Lease.expiry_max entry.expiry refreshed;
            note_expiry t entry.expiry;
            if tracing t then emit_client_lease t file entry;
            arm_renewal t file entry
          | Some _ ->
            (* our copy missed a delayed update while the file was out of
               the refresh: drop it rather than revalidate stale data *)
            if not (is_busy t file) then invalidate t file
          | None -> ())
        covered
    | Messages.Read_request _ | Messages.Extend_request _ | Messages.Write_request _
    | Messages.Approval_reply _ ->
      (* Server-bound traffic misdelivered to a client: drop. *)
      ()
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let on_crash t =
  t.up <- false;
  File_id.Tbl.iter (fun _ entry -> cancel_renewal entry) t.cache;
  File_id.Tbl.reset t.cache;
  t.files_sorted <- None;
  List.iter (fun rpc -> match rpc.timer with Some h -> Engine.cancel h | None -> ()) t.rpcs;
  t.rpcs <- [];
  File_id.Tbl.reset t.busy;
  File_id.Tbl.reset t.op_queue;
  Host_id.Tbl.reset t.renewals_in_flight;
  t.evict_next <- horizon

let on_recover t = t.up <- true

let create ~engine ~clock ~net ~liveness ~host ~server ?route ?rng ~config
    ?(tracer = Trace.Sink.null) ?req_origin () =
  Config.validate config;
  let route = match route with Some r -> r | None -> fun _ -> server in
  let counters = Stats.Counter.Registry.create () in
  let t =
    {
      engine;
      clock;
      net;
      host;
      route;
      rng;
      config;
      counters;
      c_hits = Stats.Counter.Registry.counter counters "hits";
      c_misses = Stats.Counter.Registry.counter counters "misses";
      c_retransmissions = Stats.Counter.Registry.counter counters "retransmissions";
      c_evictions = Stats.Counter.Registry.counter counters "evictions";
      c_renewals_sent = Stats.Counter.Registry.counter counters "renewals-sent";
      c_fallback_reads = Stats.Counter.Registry.counter counters "fallback-reads";
      c_approvals_answered = Stats.Counter.Registry.counter counters "approvals-answered";
      tracer;
      cache = File_id.Tbl.create 16;
      files_sorted = None;
      rpcs = [];
      busy = File_id.Tbl.create 8;
      op_queue = File_id.Tbl.create 8;
      renewals_in_flight = Host_id.Tbl.create 4;
      (* Request ids are globally unique, not merely per-client: the host
         index occupies the high bits, the per-client sequence the low 32,
         so a req doubles as the operation's correlation id in traces and
         never collides across clients or shards.  No randomness involved —
         seeded PRNG streams are untouched.  [req_origin] overrides the
         counter's starting point for deployments that instantiate the
         same client host in several sub-simulations and merge their
         traces. *)
      next_req =
        (match req_origin with
        | Some origin -> origin
        | None -> Host.Host_id.to_int host lsl 32);
      evict_next = horizon;
      up = true;
    }
  in
  Netsim.Net.register net host (handle_message t);
  Host.Liveness.register liveness host ~on_crash:(fun () -> on_crash t)
    ~on_recover:(fun () -> on_recover t) ();
  t

let hits t = Stats.Counter.Registry.find t.counters "hits"
let misses t = Stats.Counter.Registry.find t.counters "misses"
let approvals_answered t = Stats.Counter.Registry.find t.counters "approvals-answered"
let retransmissions t = Stats.Counter.Registry.find t.counters "retransmissions"
let fallback_reads t = Stats.Counter.Registry.find t.counters "fallback-reads"
let evictions t = Stats.Counter.Registry.find t.counters "evictions"
let renewals_sent t = Stats.Counter.Registry.find t.counters "renewals-sent"
let counters t = t.counters
