open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id
module Rpc_table = Netsim.Rpc_table

(* The cap on the RPC backoff, which doubles from
   [Rpc_table.retry_interval]: a client whose calls all failed at once (a
   server crash) re-sends at least this often. *)
let retry_max_interval = Time.Span.of_sec 8.

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

(* The cached files one server owns: [files.(0 .. len-1)], ascending.  The
   array grows by doubling and never shrinks; a membership change shifts
   the tail by one and allocates nothing.  [renewing] marks an
   anticipatory extension to that server outstanding. *)
type group = { mutable files : File_id.t array; mutable len : int; mutable renewing : bool }

(* Operations waiting for an in-flight RPC on the same file. *)
type queued_op =
  | Q_read of (read_result -> unit)
  | Q_write of (write_result -> unit)

type t = {
  clock : Clock.t;
  route : File_id.t -> Host_id.t;
      (** file -> owning server host; constant [server] outside sharded
          deployments *)
  config : Config.t;
  (* The client's seven counters, held on their own: a registry each would
     cost a client more than the rest of its counters and record together.
     The retransmission table bumps [c_retransmissions]. *)
  c_approvals_answered : Stats.Counter.t;
  c_evictions : Stats.Counter.t;
  c_fallback_reads : Stats.Counter.t;
  c_hits : Stats.Counter.t;
  c_misses : Stats.Counter.t;
  c_renewals_sent : Stats.Counter.t;
  c_retransmissions : Stats.Counter.t;
  tracer : Trace.Sink.t;
  (* --- volatile state, reset by the crash hook --- *)
  cache : entry File_id.Tbl.t;
  by_server : group Host_id.Tbl.t;
      (** [cache]'s files grouped by owning server, each group sorted;
          updated by one insert or remove per cache membership change, and
          only when [indexed] *)
  indexed : bool;
      (** whether anything reads [by_server]: piggybacked renewals on a
          miss, or anticipatory renewal *)
  rpcs : (rpc_kind, Messages.payload) Rpc_table.t;
  gate : (unit, queued_op) File_gate.t;
      (** files with a read or write RPC in flight, and the operations
          queued behind it *)
  mutable evict_next : Lease.expiry;
      (** lower bound on the earliest local expiry among cached entries
          ([Lease.never] = nothing can expire); drives amortized eviction
          of long-dead entries from the miss path *)
  mutable up : bool;
}


(* The client's net and host are its RPC table's, and its engine the net's. *)
let net t = Rpc_table.net t.rpcs
let host t = Rpc_table.host t.rpcs
let engine t = Netsim.Net.engine (net t)
let clock t = t.clock
let local_now t = Clock.now t.clock

(* Tracing helpers; every [emit] site is guarded on [tracing t] so the
   disabled path never allocates the event payload. *)
let tracing t = Trace.Sink.enabled t.tracer
let emit t ev = Trace.Sink.emit t.tracer (Time.to_sec (Engine.now (engine t))) ev

(* Cost-center probe, guarded like [emit]: one load and one branch when the
   engine carries no profiler. *)
let profile_mark t center =
  let p = Engine.profiler (engine t) in
  if Profile.Recorder.enabled p then Profile.Recorder.mark p center

let emit_client_lease t file (entry : entry) =
  emit t
    (Trace.Event.Client_lease
       {
         host = Host_id.to_int (host t);
         file = File_id.to_int file;
         version = Vstore.Version.to_int entry.version;
         expiry = Lease.expiry_sec entry.expiry;
         local_now = Time.to_sec (local_now t);
       })

let holds_valid_lease t file =
  match File_id.Tbl.find_opt t.cache file with
  | Some entry -> not (Lease.expired entry.expiry ~now:(local_now t))
  | None -> false

let cache_size t = File_id.Tbl.length t.cache
let eviction_bound t = t.evict_next
let inflight_rpcs t = Rpc_table.length t.rpcs
let queued_ops t = File_gate.waiters t.gate

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
let note_expiry t expiry = t.evict_next <- Lease.expiry_min expiry t.evict_next

(* --- the per-server sorted file arrays --------------------------------- *)

(* Binary search of [file] in the group: its index when present, otherwise
   [-1 - i] where [i] is the index it would be inserted at. *)
let search group file =
  let rec go lo hi =
    if lo >= hi then -1 - lo
    else begin
      let mid = (lo + hi) lsr 1 in
      let c = File_id.compare (Array.unsafe_get group.files mid) file in
      if c < 0 then go (mid + 1) hi else if c > 0 then go lo mid else mid
    end
  in
  go 0 group.len

let index_file t file =
  if t.indexed then begin
    let dst = t.route file in
    match Host_id.Tbl.find t.by_server dst with
    | group ->
      let pos = search group file in
      if pos < 0 then begin
        let at = -1 - pos in
        if group.len = Array.length group.files then begin
          let grown = Array.make (2 * group.len) file in
          Array.blit group.files 0 grown 0 group.len;
          group.files <- grown
        end;
        Array.blit group.files at group.files (at + 1) (group.len - at);
        group.files.(at) <- file;
        group.len <- group.len + 1
      end
    | exception Not_found ->
      Host_id.Tbl.add t.by_server dst { files = Array.make 8 file; len = 1; renewing = false }
  end

let unindex_file t file =
  if t.indexed then begin
    match Host_id.Tbl.find t.by_server (t.route file) with
    | group ->
      let pos = search group file in
      if pos >= 0 then begin
        Array.blit group.files (pos + 1) group.files pos (group.len - pos - 1);
        group.len <- group.len - 1
      end
    | exception Not_found -> ()
  end

(* A miss's batch: [| file; every other cached file [dst] owns, ascending |],
   one allocation and two blits; [[||]] when [dst] owns no other. *)
let piggyback t dst file =
  match Host_id.Tbl.find t.by_server dst with
  | exception Not_found -> [||]
  | group ->
    let pos = search group file in
    (* [group.files.(0 .. before-1)] precede [file], [.(after ..)] follow it *)
    let before = if pos >= 0 then pos else -1 - pos in
    let after = if pos >= 0 then pos + 1 else before in
    let others = before + group.len - after in
    if others = 0 then [||]
    else begin
      let batch = Array.make (1 + others) file in
      Array.blit group.files 0 batch 1 before;
      Array.blit group.files after batch (1 + before) (group.len - after);
      batch
    end

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
    let cutoff = Time.add (local_now t) (Time.Span.neg grace) in
    if Lease.expired t.evict_next ~now:cutoff then begin
      let min_next = ref Lease.never in
      let victims =
        File_id.Tbl.fold
          (fun file entry acc ->
            if (not (File_gate.held t.gate file)) && Lease.expired entry.expiry ~now:cutoff then
              (file, entry) :: acc
            else begin
              min_next := Lease.expiry_min entry.expiry !min_next;
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
            unindex_file t file;
            Stats.Counter.incr t.c_evictions;
            if tracing t then
              emit t
                (Trace.Event.Cache_invalidate
                   { host = Host_id.to_int (host t); file = File_id.to_int file }))
          victims
      end;
      t.evict_next <- !min_next
    end

(* The placeholder expiry is not noted into [evict_next]: both callers
   overwrite it at once and note the real one.  Noting it would pin the
   bound at time zero, so that past the first grace every later miss ran an
   eviction pass with nothing to evict. *)
let add_entry t file =
  let entry = { version = Vstore.Version.initial; expiry = Lease.at Time.zero; renewal_timer = None } in
  File_id.Tbl.add t.cache file entry;
  index_file t file;
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
    unindex_file t file;
    if tracing t then
      emit t
        (Trace.Event.Cache_invalidate
           { host = Host_id.to_int (host t); file = File_id.to_int file })
  | None -> ()

(* Renew every held lease in one batched extension per owning server with
   no waiting read — the anticipatory option of Section 4.  The extension
   covers everything in the cache, lease live or lapsed: it may renew a
   lapsed lease (the server refreshes the version if the datum changed),
   and the paper's batching advice is to extend "all leases over all files
   that it still holds".  One renewal covers every cached file routed to
   that server, so when many per-entry timers fire at the same instant only
   the first sends; the reply re-arms them all.  Servers are visited in
   order of their smallest cached file.  The in-flight guard is per
   server: a slow shard must not starve renewals toward the others. *)
let rec send_renewal t =
  profile_mark t Profile.Center.Client_renewal;
  if t.up then begin
    let groups =
      Host_id.Tbl.fold
        (fun dst group acc -> if group.len = 0 then acc else (group.files.(0), dst, group) :: acc)
        t.by_server []
      (* slot order must not leak into the message order *)
      |> List.sort (fun (a, _, _) (b, _, _) -> File_id.compare a b)
    in
    List.iter
      (fun (_, dst, group) ->
        if not group.renewing then begin
          Stats.Counter.incr t.c_renewals_sent;
          group.renewing <- true;
          (* a copy: the group keeps changing, a sent array never does *)
          let files = Array.sub group.files 0 group.len in
          let req = Rpc_table.fresh_req t.rpcs in
          Rpc_table.start t.rpcs ~req ~dst Rpc_renewal (Messages.Extend_request { req; files })
        end)
      groups
  end

and arm_renewal t file entry =
  match t.config.anticipatory_renewal with
  | None -> ()
  | Some lead -> (
    match Lease.deadline entry.expiry with
    | None -> ()
    | Some expiry ->
      cancel_renewal entry;
      let renew_at_local = Time.add expiry (Time.Span.neg lead) in
      let fire () =
        if t.up && (match File_id.Tbl.find_opt t.cache file with Some e -> e == entry | None -> false)
        then send_renewal t
      in
      entry.renewal_timer <- Some (Clock.schedule_at_local t.clock renew_at_local fire))

let apply_grant_to t file version entry expiry =
  (* Guard against resurrecting state that predates a write we already know
     about: server versions are monotone, so a grant carrying an older
     version was issued before that write and its lease died with it.  (The
     fixed-delay network delivers FIFO, so this cannot fire today; it is the
     locally checkable safety condition nonetheless.) *)
  if Vstore.Version.compare version entry.version < 0 then ()
  else begin
  entry.version <- version;
  entry.expiry <- expiry;
  note_expiry t expiry;
  if tracing t then emit_client_lease t file entry;
  arm_renewal t file entry
  end

let apply_grant t file version (lease : Lease.grant option) expiry =
  match File_id.Tbl.find t.cache file with
  | entry -> apply_grant_to t file version entry expiry
  | exception Not_found -> (
    match lease with
    | None ->
      (* The server answered but granted nothing (zero term, or a write in
         flight on the file) and we hold no copy.  There is nothing to serve
         and nothing to protect: inserting the entry anyway would book a
         never-leased probe as a cached file, permanently inflating
         [cache_size] and the telemetry occupancy series. *)
      ()
    | Some _ -> apply_grant_to t file version (add_entry t file) expiry)

(* The client expiry of a lease received [now]. *)
let grant_expiry t (lease : Lease.grant option) ~now =
  match lease with
  | Some { Lease.term } ->
    Lease.client_expiry term ~received_at:now ~transit_allowance:(Netsim.Net.transit (net t))
      ~skew_allowance:t.config.skew_allowance
  | None ->
    (* No lease came back (zero term or a write is pending): make sure we
       do not keep trusting an older one. *)
    Lease.at now

(* Apply one reply's lines, all received now, by index.  The server hands
   every line of one term the same lease value, so the client expiry is
   computed once per run of equal values — once per reply and term — and
   each line costs one field write. *)
let apply_grants t files versions (leases : Lease.grant option array) =
  let now = local_now t in
  let last = ref None in
  let expiry = ref Lease.never in
  for i = 0 to Array.length files - 1 do
    let lease = leases.(i) in
    (match lease with
    | Some _ when lease == !last -> ()
    | Some _ | None -> expiry := grant_expiry t lease ~now);
    last := lease;
    apply_grant t files.(i) versions.(i) lease !expiry
  done

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

let rec read t file ~k =
  if not t.up then ()
  else if File_gate.held t.gate file then File_gate.wait t.gate file (Q_read k)
  else begin
    match File_id.Tbl.find t.cache file with
    | entry when not (Lease.expired entry.expiry ~now:(local_now t)) ->
      Stats.Counter.incr t.c_hits;
      if tracing t then
        emit t
          (Trace.Event.Cache_hit
             {
               host = Host_id.to_int (host t);
               file = File_id.to_int file;
               version = Vstore.Version.to_int entry.version;
               local_now = Time.to_sec (local_now t);
             });
      k { r_version = entry.version; r_latency = Time.Span.zero; r_from_cache = true }
    | _ | (exception Not_found) ->
      Stats.Counter.incr t.c_misses;
      (* a miss is already a slow path: settle any long-overdue evictions
         before the piggyback list below is taken from [by_server] *)
      maybe_evict t;
      if tracing t then
        emit t
          (Trace.Event.Cache_miss { host = Host_id.to_int (host t); file = File_id.to_int file });
      File_gate.hold t.gate file ();
      let dst = t.route file in
      let req = Rpc_table.fresh_req t.rpcs in
      let message =
        if t.config.Config.batch_extensions then begin
          (* Piggyback renewals only for files the same server owns: a
             batched extension is one RPC to one host. *)
          match piggyback t dst file with
          | [||] -> Messages.Read_request { req; file }
          | files -> Messages.Extend_request { req; files }
        end
        else Messages.Read_request { req; file }
      in
      Rpc_table.start t.rpcs ~req ~dst (Rpc_read { file; k }) message
  end

and write t file ~k =
  if not t.up then ()
  else if File_gate.held t.gate file then File_gate.wait t.gate file (Q_write k)
  else begin
    (* The write request carries our implicit approval, and "when a
       leaseholder grants approval for a write, it invalidates its local
       copy" — that includes the writer itself: until the reply arrives the
       cached copy must not serve reads. *)
    invalidate t file;
    File_gate.hold t.gate file ();
    let req = Rpc_table.fresh_req t.rpcs in
    Rpc_table.start t.rpcs ~req ~dst:(t.route file) (Rpc_write { file; k })
      (Messages.Write_request { req; file })
  end

and run t file = function Q_read k -> read t file ~k | Q_write k -> write t file ~k

(* The in-flight operation on [file] finished: run the operations queued
   behind it until one goes back on the wire. *)
let release t file = File_gate.free t.gate file run t

(* ------------------------------------------------------------------ *)
(* Message handling                                                    *)

(* Complete [rpc] with its reply's line 0: a miss puts its file first, and
   the reply shares the request's files. *)
let complete_read t (rpc : (_, _) Rpc_table.call) ~file:answered ~version =
  match rpc.kind with
  | Rpc_read { file; k } ->
    Rpc_table.finish t.rpcs rpc.req;
    if File_id.equal answered file then begin
      k
        {
          r_version = version;
          r_latency = Time.diff (Engine.now (engine t)) rpc.started;
          r_from_cache = false;
        };
      release t file
    end
    else begin
      (* The reply answers a different file (possible after a
         retransmission raced a crash).  Fabricating a result from the
         cache here would complete the read with no lease and no server
         version — a reply-mismatch artifact the oracle would then book as
         protocol staleness — so re-issue the read instead.  The file stays
         busy, so queued operations keep their order. *)
      Stats.Counter.incr t.c_fallback_reads;
      let req = Rpc_table.fresh_req t.rpcs in
      Rpc_table.start t.rpcs ~req ~dst:rpc.dst (Rpc_read { file; k })
        (Messages.Read_request { req; file })
    end
  | Rpc_renewal ->
    (match Host_id.Tbl.find t.by_server rpc.dst with
    | group -> group.renewing <- false
    | exception Not_found -> ());
    Rpc_table.finish t.rpcs rpc.req
  | Rpc_write _ -> ()

let handle_message t (envelope : Messages.payload Netsim.Net.envelope) =
  if t.up then begin
    profile_mark t Profile.Center.Client_handle;
    match envelope.payload with
    | Messages.Read_reply { req; file; version; lease } -> (
      apply_grant t file version lease (grant_expiry t lease ~now:(local_now t));
      (* a late duplicate's grant is still fresh info *)
      match Rpc_table.find t.rpcs req with
      | Some rpc -> complete_read t rpc ~file ~version
      | None -> ())
    | Messages.Extend_reply { req; files; versions; leases } -> (
      apply_grants t files versions leases;
      match Rpc_table.find t.rpcs req with
      (* no batch is empty: a miss's starts with its file, a renewal's
         copies a non-empty group *)
      | Some rpc -> complete_read t rpc ~file:files.(0) ~version:versions.(0)
      | None -> ())
    | Messages.Write_reply { req; file; version } -> (
      match Rpc_table.find t.rpcs req with
      | Some ({ kind = Rpc_write { file = wfile; k }; _ } as rpc) when File_id.equal file wfile ->
        Rpc_table.finish t.rpcs rpc.req;
        (* Our own write completed: cache the new version, but with no
           lease — the next read revalidates with an extension request. *)
        let entry = entry_for t file in
        if Vstore.Version.compare version entry.version >= 0 then begin
          entry.version <- version;
          entry.expiry <- Lease.at (local_now t);
          note_expiry t entry.expiry
        end;
        if tracing t then emit_client_lease t file entry;
        k { w_version = version; w_latency = Time.diff (Engine.now (engine t)) rpc.started };
        release t file
      | Some _ | None -> ())
    | Messages.Approval_request { write; file } ->
      Stats.Counter.incr t.c_approvals_answered;
      invalidate t file;
      (* Reply to whichever server asked — under sharding that is the
         file's owner, not necessarily our default server. *)
      Netsim.Net.send (net t) ~src:(host t) ~dst:envelope.src
        (Messages.Approval_reply { write; file })
    | Messages.Installed_refresh { covered; term } ->
      let refreshed =
        Lease.client_expiry (Lease.Finite term) ~received_at:(local_now t)
          ~transit_allowance:(Netsim.Net.transit (net t)) ~skew_allowance:t.config.skew_allowance
      in
      List.iter
        (fun (file, version) ->
          match File_id.Tbl.find_opt t.cache file with
          | Some entry when Vstore.Version.equal entry.version version ->
            entry.expiry <- Lease.expiry_max entry.expiry refreshed;
            note_expiry t entry.expiry;
            if tracing t then emit_client_lease t file entry;
            arm_renewal t file entry
          | Some _ ->
            (* our copy missed a delayed update while the file was out of
               the refresh: drop it rather than revalidate stale data *)
            if not (File_gate.held t.gate file) then invalidate t file
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
  Host_id.Tbl.reset t.by_server;
  Rpc_table.cancel_all t.rpcs;
  File_gate.reset t.gate;
  t.evict_next <- Lease.never

let on_recover t = t.up <- true

let create ?engine ~clock ~net ~liveness ~host ~server ?route ?rng ~config
    ?(tracer = Trace.Sink.null) ?req_origin () =
  Config.validate config;
  (match engine with
  | Some engine when Netsim.Net.engine net != engine ->
    invalid_arg "Client.create: net runs on another engine"
  | Some _ | None -> ());
  let route = match route with Some r -> r | None -> fun _ -> server in
  let c_retransmissions = Stats.Counter.create "retransmissions" in
  let t =
    {
      clock;
      route;
      config;
      c_approvals_answered = Stats.Counter.create "approvals-answered";
      c_evictions = Stats.Counter.create "evictions";
      c_fallback_reads = Stats.Counter.create "fallback-reads";
      c_hits = Stats.Counter.create "hits";
      c_misses = Stats.Counter.create "misses";
      c_renewals_sent = Stats.Counter.create "renewals-sent";
      c_retransmissions;
      tracer;
      cache = File_id.Tbl.create 16;
      by_server = Host_id.Tbl.create 1;
      indexed = config.batch_extensions || Option.is_some config.anticipatory_renewal;
      rpcs =
        Rpc_table.create ~net ~host ?req_origin ~retry_max:retry_max_interval ?jitter:rng
          ~retransmissions:c_retransmissions ();
      gate = File_gate.create ();
      evict_next = Lease.never;
      up = true;
    }
  in
  Netsim.Net.register net host (handle_message t);
  Host.Liveness.register liveness host ~on_crash:(fun () -> on_crash t)
    ~on_recover:(fun () -> on_recover t) ();
  t

let hits t = Stats.Counter.value t.c_hits
let misses t = Stats.Counter.value t.c_misses
let approvals_answered t = Stats.Counter.value t.c_approvals_answered
let retransmissions t = Stats.Counter.value t.c_retransmissions
let evictions t = Stats.Counter.value t.c_evictions
let renewals_sent t = Stats.Counter.value t.c_renewals_sent

let counters t =
  [
    t.c_approvals_answered;
    t.c_evictions;
    t.c_fallback_reads;
    t.c_hits;
    t.c_misses;
    t.c_renewals_sent;
    t.c_retransmissions;
  ]
