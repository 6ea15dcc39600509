(* Critical-path attribution of client-observed operation latency.

   The analyzer folds the typed event stream into one record per client
   operation (correlated by the request id carried on every [Net_*] event
   and on [Wait_begin]/[Commit]) and partitions the interval from the
   operation's first request transmission to its reply delivery into
   phases.  Segments are produced by cutting at every attribution-changing
   event, so by construction they telescope: the phase totals of a
   completed operation sum to its measured latency exactly (modulo float
   association, well under the 1e-9 s the conservation gate allows).

   All instants are engine time ([Event.t.at]), the stream's global order,
   so clock drift and steps on either endpoint cannot break conservation.

   Attribution priority at any instant (first match wins):
   - reply sent: reply-transit while a reply copy is in flight, otherwise
     reply-backoff (the reply was dropped; the client must retransmit the
     request to coax a deduplicated resend out of the server);
   - waiting: time accrues to a pending lease wait, labelled when it is
     resolved — wait-approval up to each approval, wait-expiry up to a
     server-side expiry/recovery deadline (retransmissions during a wait
     do not cut the segment: the wait is the critical path);
   - delivered: server-queue (the write sits behind another pending write
     on the same file, or a recovery quiet period);
   - otherwise: req-transit while a request copy is in flight, backoff
     while none is (every copy dropped; the client is waiting out its
     retransmission timer). *)

type phase =
  | Req_transit
  | Backoff
  | Server_queue
  | Wait_approval
  | Wait_expiry
  | Reply_transit
  | Reply_backoff

let phases = [
  Req_transit; Backoff; Server_queue; Wait_approval; Wait_expiry; Reply_transit; Reply_backoff;
]

let n_phases = List.length phases

let phase_index = function
  | Req_transit -> 0
  | Backoff -> 1
  | Server_queue -> 2
  | Wait_approval -> 3
  | Wait_expiry -> 4
  | Reply_transit -> 5
  | Reply_backoff -> 6

let phase_name = function
  | Req_transit -> "req-transit"
  | Backoff -> "backoff"
  | Server_queue -> "server-queue"
  | Wait_approval -> "wait-approval"
  | Wait_expiry -> "wait-expiry"
  | Reply_transit -> "reply-transit"
  | Reply_backoff -> "reply-backoff"

type op_kind = K_read | K_extend | K_write

let op_kinds = [ K_read; K_extend; K_write ]
let kind_index = function K_read -> 0 | K_extend -> 1 | K_write -> 2
let op_kind_name = function K_read -> "read" | K_extend -> "extend" | K_write -> "write"

(* Operation ids are the client's request ids: host index in the high
   bits, per-client sequence in the low 32. *)
let op_name id = Printf.sprintf "c%d#%d" (id lsr 32) (id land 0xFFFF_FFFF)

type seg = { s_phase : phase; s_from : float; s_to : float }

type resolution = R_approved of float | R_expired of float | R_crashed of float

let resolution_name = function
  | R_approved _ -> "approved"
  | R_expired _ -> "expired"
  | R_crashed _ -> "server-crash"

let resolution_at = function R_approved at | R_expired at | R_crashed at -> at

type blocker = { b_holder : int; mutable b_res : resolution option }

(* One traced drop of an approval message belonging to a wait: the kind
   ("approve-req"/"approve-rep"), the holder concerned, cause, instant. *)
type approval_drop = { d_msg : string; d_holder : int; d_cause : Event.drop_cause; d_at : float }

(* A wait names the op it holds, so the write id alone finds both. *)
type wait_note = {
  wn_write : int;
  wn_op : op;
  mutable wn_blockers : blocker list;  (** reverse order of [Wait_begin.waiting] *)
  mutable wn_drops : approval_drop list;  (** newest first *)
}

and op = {
  o_id : int;
  o_client : int;
  o_server : int;
  o_kind : op_kind;
  o_t0 : float;
  mutable o_file : int;  (** -1 until a server-side event names it *)
  mutable o_end : float;  (** reply delivery; NaN while open *)
  mutable o_segs : seg list;  (** newest first *)
  mutable o_last : float;  (** start of the unattributed interval *)
  mutable o_inflight_req : int;
  mutable o_delivered : bool;
  mutable o_waiting : bool;
  mutable o_reply_sent : bool;
  mutable o_inflight_reply : int;
  mutable o_retrans : int;
  mutable o_waits : wait_note list;  (** newest first *)
}

type server_row = { mutable sv_ops : int; mutable sv_writes : int; sv_sums : float array }

(* Op, write and host ids are non-negative ints, so every table is an
   [Int_tbl]: a lookup is a multiply and a short probe run, with no call
   into the polymorphic hash and no option to box. *)
type t = {
  writes_only : bool;  (** reads and extensions get no op record *)
  open_ops : op Int_tbl.t;  (** by op id *)
  by_write : wait_note Int_tbl.t;  (** by write id, while its write is open or in [slowest] *)
  worst : int;  (** how many completed writes [slowest] keeps *)
  mutable slowest : op list;  (** the [worst] slowest completed writes, in [rank] order *)
  lat_hist : Stats.Histogram.t array;  (** by kind *)
  phase_hist : Stats.Histogram.t array array;  (** by kind, then phase *)
  abandoned : int array;  (** by kind: client crashed mid-operation *)
  servers : server_row Int_tbl.t;  (** by server host *)
  sums : float array;  (** scratch: the completing op's phase totals *)
  mutable checked : int;  (** completed ops through the conservation check *)
  mutable max_err : float;  (** worst |sum of phases - measured latency| *)
}

(* The read and extension rows of a writes-only analyzer: it completes no
   read or extension, so nothing ever adds to these. *)
let never_written = Stats.Histogram.create ()
let never_written_phases = Array.make n_phases never_written

let create ?(worst = 5) ?(writes_only = false) () =
  if worst < 0 then invalid_arg (Printf.sprintf "Critical_path.create: worst %d < 0" worst);
  let built k = (not writes_only) || k = kind_index K_write in
  {
    writes_only;
    open_ops = Int_tbl.create 64;
    by_write = Int_tbl.create 64;
    worst;
    slowest = [];
    lat_hist = Array.init 3 (fun k -> if built k then Stats.Histogram.create () else never_written);
    phase_hist =
      Array.init 3 (fun k ->
          if built k then Array.init n_phases (fun _ -> Stats.Histogram.create ())
          else never_written_phases);
    abandoned = Array.make 3 0;
    servers = Int_tbl.create 8;
    sums = Array.make n_phases 0.;
    checked = 0;
    max_err = 0.;
  }

let server_row t server =
  match Int_tbl.find t.servers server with
  | r -> r
  | exception Not_found ->
    let r = { sv_ops = 0; sv_writes = 0; sv_sums = Array.make n_phases 0. } in
    Int_tbl.add t.servers server r;
    r

let phase_of op =
  if op.o_reply_sent then if op.o_inflight_reply > 0 then Reply_transit else Reply_backoff
  else if op.o_delivered then Server_queue
  else if op.o_inflight_req > 0 then Req_transit
  else Backoff

(* Adjacent segments with the same label merge, so timelines stay tidy. *)
let push_seg op phase ~from ~until =
  match op.o_segs with
  | { s_phase; s_from; s_to } :: rest when s_phase == phase && s_to = from ->
    op.o_segs <- { s_phase; s_from; s_to = until } :: rest
  | _ -> op.o_segs <- { s_phase = phase; s_from = from; s_to = until } :: op.o_segs

(* Attribute [o_last, now) to the current phase.  A pending wait is left
   uncut — its interval is flushed, labelled, by the resolution events. *)
let cut op now =
  if not op.o_waiting && now > op.o_last then begin
    push_seg op (phase_of op) ~from:op.o_last ~until:now;
    op.o_last <- now
  end

let flush_wait op label now =
  if now > op.o_last then push_seg op label ~from:op.o_last ~until:now;
  op.o_last <- now

(* Adds each segment's length to its phase's total, newest segment first:
   the order every total has always been summed in, so each stays
   bit-identical. *)
let rec add_segs sums = function
  | [] -> ()
  | { s_phase; s_from; s_to } :: rest ->
    let i = phase_index s_phase in
    sums.(i) <- sums.(i) +. (s_to -. s_from);
    add_segs sums rest

let phase_totals op =
  let sums = Array.make n_phases 0. in
  add_segs sums op.o_segs;
  sums

(* Slowest first, then by op id: the order [report] lists writes in. *)
let rank a b =
  match Float.compare (b.o_end -. b.o_t0) (a.o_end -. a.o_t0) with
  | 0 -> Int.compare a.o_id b.o_id
  | c -> c

(* A write that leaves [slowest], or never enters it, takes its wait notes
   out of [by_write]: nothing reads them again.  A note under a reused
   write id is left alone. *)
let drop_notes t op =
  List.iter
    (fun w ->
      match Int_tbl.find t.by_write w.wn_write with
      | note when note == w -> Int_tbl.remove t.by_write w.wn_write
      | _ | (exception Not_found) -> ())
    op.o_waits

(* Files a just-completed write into [slowest].  It goes before every kept
   write it ties with: newer writes come first among equals, as in the
   stable sort of all writes, newest first, that [slowest] stands for. *)
let keep_slowest t op =
  let rec insert = function x :: rest when rank op x > 0 -> x :: insert rest | l -> op :: l in
  let rec take n = function
    | [] -> []
    | l when n = 0 ->
      List.iter (drop_notes t) l;
      []
    | x :: rest -> x :: take (n - 1) rest
  in
  t.slowest <- take t.worst (insert t.slowest)

let complete t op now =
  cut op now;
  op.o_end <- now;
  Int_tbl.remove t.open_ops op.o_id;
  let latency = now -. op.o_t0 in
  let sums = t.sums in
  Array.fill sums 0 n_phases 0.;
  add_segs sums op.o_segs;
  (* a left fold from index 0, as [Array.fold_left ( +. ) 0.] sums *)
  let total = ref 0. in
  for i = 0 to n_phases - 1 do
    total := !total +. sums.(i)
  done;
  let err = Float.abs (!total -. latency) in
  t.checked <- t.checked + 1;
  if err > t.max_err then t.max_err <- err;
  let k = kind_index op.o_kind in
  Stats.Histogram.add t.lat_hist.(k) latency;
  let phase_hist = t.phase_hist.(k) in
  for i = 0 to n_phases - 1 do
    Stats.Histogram.add phase_hist.(i) sums.(i)
  done;
  let row = server_row t op.o_server in
  row.sv_ops <- row.sv_ops + 1;
  match op.o_kind with
  | K_write ->
    row.sv_writes <- row.sv_writes + 1;
    for i = 0 to n_phases - 1 do
      row.sv_sums.(i) <- row.sv_sums.(i) +. sums.(i)
    done;
    keep_slowest t op
  | K_read | K_extend -> ()

let abandon t op =
  Int_tbl.remove t.open_ops op.o_id;
  drop_notes t op;
  let k = kind_index op.o_kind in
  t.abandoned.(k) <- t.abandoned.(k) + 1

let is_request = function
  | Event.M_read_req | Event.M_extend_req | Event.M_write_req -> true
  | _ -> false

let is_reply = function
  | Event.M_read_rep | Event.M_extend_rep | Event.M_write_rep -> true
  | _ -> false

let is_approval = function Event.M_approve_req | Event.M_approve_rep -> true | _ -> false

(* Resolves every still-unresolved blocker to [res], one shared value. *)
let rec resolve_open res = function
  | [] -> ()
  | b :: rest ->
    (match b.b_res with None -> b.b_res <- res | Some _ -> ());
    resolve_open res rest

let rec approve_holder holder at = function
  | [] -> ()
  | b :: rest ->
    if b.b_holder = holder then
      match b.b_res with None -> b.b_res <- Some (R_approved at) | Some _ -> ()
    else approve_holder holder at rest

let on_req_send t ~at ~src ~dst ~kind ~corr =
  match Int_tbl.find t.open_ops corr with
  | op ->
    cut op at;
    op.o_retrans <- op.o_retrans + 1;
    op.o_inflight_req <- op.o_inflight_req + 1
  | exception Not_found ->
    Int_tbl.add t.open_ops corr
      {
        o_id = corr;
        o_client = src;
        o_server = dst;
        o_kind = kind;
        o_t0 = at;
        o_file = -1;
        o_end = Float.nan;
        o_segs = [];
        o_last = at;
        o_inflight_req = 1;
        o_delivered = false;
        o_waiting = false;
        o_reply_sent = false;
        o_inflight_reply = 0;
        o_retrans = 0;
        o_waits = [];
      }

let note_approval_drop t ~at ~src ~dst ~kind ~corr ~cause =
  match Int_tbl.find t.by_write corr with
  | exception Not_found -> ()
  | note ->
    if Int_tbl.mem t.open_ops note.wn_op.o_id then
      let d_msg = Event.msg_kind_name kind in
      let d_holder = match kind with Event.M_approve_req -> dst | _ -> src in
      note.wn_drops <- { d_msg; d_holder; d_cause = cause; d_at = at } :: note.wn_drops

(* A server crash wipes its pending and queued writes: flush any
   interrupted wait at the crash instant (the blockers resolve by crash,
   not approval) and fall back to request-retransmission attribution — the
   client's retry will re-run the write after recovery.  A client crash
   abandons its open operations outright: the client forgets its RPCs, so
   no reply will ever complete them. *)
let on_crash t ~at host =
  (* Collect first: abandonment mutates the table under iteration. *)
  let hit = Int_tbl.fold (fun _ op acc -> op :: acc) t.open_ops [] in
  List.iter
    (fun op ->
      if op.o_client = host then abandon t op
      else if op.o_server = host && not op.o_reply_sent then begin
        if op.o_waiting then begin
          (match op.o_waits with
          | w :: _ -> resolve_open (Some (R_crashed at)) w.wn_blockers
          | [] -> ());
          flush_wait op Wait_expiry at;
          op.o_waiting <- false
        end
        else cut op at;
        op.o_delivered <- false
      end)
    hit

let feed t { Event.at; ev } =
  match ev with
  | Event.Net_send { src; dst; kind; corr } when corr >= 0 -> (
    (* A writes-only analyzer opens no read or extension: that op's later
       events miss the open-op table. *)
    match kind with
    | Event.M_read_req ->
      if not t.writes_only then on_req_send t ~at ~src ~dst ~kind:K_read ~corr
    | Event.M_extend_req ->
      if not t.writes_only then on_req_send t ~at ~src ~dst ~kind:K_extend ~corr
    | Event.M_write_req -> on_req_send t ~at ~src ~dst ~kind:K_write ~corr
    | _ -> (
      match Int_tbl.find t.open_ops corr with
      | op when is_reply kind ->
        if op.o_waiting then flush_wait op Wait_expiry at else cut op at;
        op.o_waiting <- false;
        op.o_reply_sent <- true;
        op.o_inflight_reply <- op.o_inflight_reply + 1
      | _ | (exception Not_found) -> ()))
  | Event.Net_deliver { dst; kind; corr; _ } when corr >= 0 -> (
    match Int_tbl.find t.open_ops corr with
    | op when is_request kind ->
      cut op at;
      op.o_inflight_req <- Int.max 0 (op.o_inflight_req - 1);
      if dst = op.o_server then op.o_delivered <- true
    | op when is_reply kind -> if dst = op.o_client then complete t op at
    | _ | (exception Not_found) -> ())
  | Event.Net_drop { src; dst; kind; corr; cause } when corr >= 0 ->
    if is_approval kind then note_approval_drop t ~at ~src ~dst ~kind ~corr ~cause
    else begin
      match Int_tbl.find t.open_ops corr with
      | op when is_request kind ->
        cut op at;
        op.o_inflight_req <- Int.max 0 (op.o_inflight_req - 1)
      | op when is_reply kind ->
        cut op at;
        op.o_inflight_reply <- Int.max 0 (op.o_inflight_reply - 1)
      | _ | (exception Not_found) -> ()
    end
  | Event.Wait_begin { write; op = op_id; waiting; file; _ } -> (
    match Int_tbl.find t.open_ops op_id with
    | exception Not_found -> ()
    | op ->
      cut op at;
      op.o_file <- file;
      op.o_waiting <- true;
      let note =
        {
          wn_write = write;
          wn_op = op;
          wn_blockers = List.map (fun h -> { b_holder = h; b_res = None }) waiting;
          wn_drops = [];
        }
      in
      op.o_waits <- note :: op.o_waits;
      Int_tbl.replace t.by_write write note)
  | Event.Approval_reply { write; holder; _ } -> (
    match Int_tbl.find t.by_write write with
    | exception Not_found -> ()
    | { wn_op = op; wn_blockers; _ } ->
      approve_holder holder at wn_blockers;
      if Int_tbl.mem t.open_ops op.o_id && op.o_waiting then flush_wait op Wait_approval at)
  | Event.Wait_expire { write; _ } -> (
    match Int_tbl.find t.by_write write with
    | exception Not_found -> ()
    | { wn_op = op; wn_blockers; _ } ->
      resolve_open (Some (R_expired at)) wn_blockers;
      if Int_tbl.mem t.open_ops op.o_id && op.o_waiting then flush_wait op Wait_expiry at)
  | Event.Commit { op = op_id; file; _ } -> (
    match Int_tbl.find t.open_ops op_id with
    | exception Not_found -> ()
    | op ->
      if op.o_waiting then begin
        (* Residual wait past the last resolution: a recovery quiet
           period or a commit landing on the expiry deadline itself —
           time waited out on a clock, not an approval. *)
        flush_wait op Wait_expiry at;
        op.o_waiting <- false;
        match op.o_waits with
        | w :: _ -> resolve_open (Some (R_expired at)) w.wn_blockers
        | [] -> ()
      end
      else cut op at;
      if op.o_file < 0 then op.o_file <- file)
  | Event.Crash { host } -> on_crash t ~at host
  | Event.Net_send _ | Event.Net_deliver _ | Event.Net_drop _ -> ()
  | Event.Lease_grant _ | Event.Lease_release _ | Event.Lease_expire _ | Event.Approval_request _
  | Event.Installed_cover _ | Event.Client_lease _ | Event.Cache_hit _ | Event.Cache_miss _
  | Event.Cache_invalidate _ | Event.Recover _ | Event.Clock_drift _ | Event.Clock_step _
  | Event.Heartbeat _ -> ()

let sink t = { Sink.enabled = true; push = feed t; flush = ignore }

(* ---------------------------------------------------------------------- *)
(* Reporting                                                              *)

type kind_stats = {
  ks_kind : op_kind;
  ks_count : int;
  ks_incomplete : int;
  ks_abandoned : int;
  ks_latency : Stats.Histogram.summary;
  ks_phases : (phase * Stats.Histogram.summary) list;
}

type wait_view = {
  wv_write : int;
  wv_blockers : (int * string * float) list;  (** holder, resolution, instant *)
  wv_drops : approval_drop list;  (** oldest first *)
}

type worst = {
  w_op : int;
  w_client : int;
  w_server : int;
  w_file : int;
  w_latency : float;
  w_from : float;
  w_to : float;
  w_retrans : int;
  w_phases : (phase * float) list;  (** all phases, canonical order *)
  w_dominant : phase;
  w_timeline : seg list;  (** oldest first *)
  w_waits : wait_view list;  (** oldest first *)
  w_explain : string;
}

type server_stats = {
  srv_host : int;
  srv_ops : int;
  srv_writes : int;
  srv_write_phase_sums : (phase * float) list;
}

type report = {
  r_kinds : kind_stats list;
  r_checked : int;
  r_max_err : float;
  r_worst : worst list;
  r_servers : server_stats list;
}

let explain op ~latency ~sums =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "%s %s on file %d took %.6g s" (op_kind_name op.o_kind) (op_name op.o_id)
       op.o_file latency);
  let ranked =
    List.filter (fun (_, v) -> v > 0.) (List.map (fun p -> (p, sums.(phase_index p))) phases)
    |> List.sort (fun (pa, a) (pb, b) ->
           match compare b a with 0 -> compare (phase_index pa) (phase_index pb) | c -> c)
  in
  List.iteri
    (fun i (p, v) ->
      Buffer.add_string b (if i = 0 then ": " else ", ");
      Buffer.add_string b (Printf.sprintf "%s %.6g s" (phase_name p) v);
      if p = Wait_approval || p = Wait_expiry then begin
        let notes =
          List.concat_map
            (fun w ->
              List.filter_map
                (fun bl ->
                  match (bl.b_res, p) with
                  | Some (R_approved _ as r), Wait_approval
                  | Some ((R_expired _ | R_crashed _) as r), Wait_expiry ->
                    let drop_note =
                      match
                        List.filter (fun d -> d.d_holder = bl.b_holder) (List.rev w.wn_drops)
                      with
                      | [] -> ""
                      | d :: _ ->
                        Printf.sprintf " after its %s was dropped (%s)" d.d_msg
                          (Event.drop_cause_name d.d_cause)
                    in
                    Some
                      (Printf.sprintf "holder %d %s%s" bl.b_holder (resolution_name r) drop_note)
                  | _ -> None)
                w.wn_blockers)
            (List.rev op.o_waits)
        in
        match notes with
        | [] -> ()
        | notes -> Buffer.add_string b (Printf.sprintf " (%s)" (String.concat "; " notes))
      end)
    ranked;
  Buffer.contents b

let worst_of op =
  let latency = op.o_end -. op.o_t0 in
  let sums = phase_totals op in
  let w_phases = List.map (fun p -> (p, sums.(phase_index p))) phases in
  let w_dominant =
    fst
      (List.fold_left
         (fun (bp, bv) (p, v) -> if v > bv then (p, v) else (bp, bv))
         (Req_transit, -1.) w_phases)
  in
  {
    w_op = op.o_id;
    w_client = op.o_client;
    w_server = op.o_server;
    w_file = op.o_file;
    w_latency = latency;
    w_from = op.o_t0;
    w_to = op.o_end;
    w_retrans = op.o_retrans;
    w_phases;
    w_dominant;
    w_timeline = List.rev op.o_segs;
    w_waits =
      List.rev_map
        (fun w ->
          {
            wv_write = w.wn_write;
            wv_blockers =
              List.rev_map
                (fun b ->
                  match b.b_res with
                  | Some r -> (b.b_holder, resolution_name r, resolution_at r)
                  | None -> (b.b_holder, "unresolved", Float.nan))
                w.wn_blockers;
            wv_drops = List.rev w.wn_drops;
          })
        op.o_waits;
    w_explain = explain op ~latency ~sums;
  }

let report ?k t =
  let k = Option.value k ~default:t.worst in
  if k > t.worst then
    invalid_arg
      (Printf.sprintf "Critical_path.report: k %d exceeds the %d writes the analyzer keeps" k
         t.worst);
  let incomplete = Array.make 3 0 in
  Int_tbl.iter
    (fun _ op -> incomplete.(kind_index op.o_kind) <- incomplete.(kind_index op.o_kind) + 1)
    t.open_ops;
  let r_kinds =
    List.map
      (fun kind ->
        let i = kind_index kind in
        {
          ks_kind = kind;
          ks_count = Stats.Histogram.count t.lat_hist.(i);
          ks_incomplete = incomplete.(i);
          ks_abandoned = t.abandoned.(i);
          ks_latency = Stats.Histogram.summary t.lat_hist.(i);
          ks_phases =
            List.map
              (fun p -> (p, Stats.Histogram.summary t.phase_hist.(i).(phase_index p)))
              phases;
        })
      op_kinds
  in
  let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl in
  {
    r_kinds;
    r_checked = t.checked;
    r_max_err = t.max_err;
    r_worst = List.map worst_of (take k t.slowest);
    r_servers =
      Int_tbl.fold (fun host row acc -> (host, row) :: acc) t.servers []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (host, row) ->
             {
               srv_host = host;
               srv_ops = row.sv_ops;
               srv_writes = row.sv_writes;
               srv_write_phase_sums =
                 List.map (fun p -> (p, row.sv_sums.(phase_index p))) phases;
             });
  }

let phase_sums_for t ~server =
  match Int_tbl.find t.servers server with
  | exception Not_found -> List.map (fun p -> (phase_name p, 0.)) phases
  | row -> List.map (fun p -> (phase_name p, row.sv_sums.(phase_index p))) phases

(* ---------------------------------------------------------------------- *)
(* JSON export: leases-latency/1, deterministic                           *)

let summary_json (s : Stats.Histogram.summary) =
  Json.Obj
    [
      ("count", Json.Num (float_of_int s.Stats.Histogram.s_count));
      ("sum", Json.Num s.Stats.Histogram.s_sum);
      ("mean", Json.Num s.Stats.Histogram.s_mean);
      ("p50", Json.Num s.Stats.Histogram.s_p50);
      ("p90", Json.Num s.Stats.Histogram.s_p90);
      ("p99", Json.Num s.Stats.Histogram.s_p99);
      ("p999", Json.Num s.Stats.Histogram.s_p999);
    ]

let int_json i = Json.Num (float_of_int i)

let worst_json w =
  Json.Obj
    [
      ("op", Json.Str (op_name w.w_op));
      ("op_id", int_json w.w_op);
      ("client", int_json w.w_client);
      ("server", int_json w.w_server);
      ("file", int_json w.w_file);
      ("latency", Json.Num w.w_latency);
      ("from", Json.Num w.w_from);
      ("to", Json.Num w.w_to);
      ("retransmissions", int_json w.w_retrans);
      ("dominant", Json.Str (phase_name w.w_dominant));
      ("phases", Json.Obj (List.map (fun (p, v) -> (phase_name p, Json.Num v)) w.w_phases));
      ( "waits",
        Json.Arr
          (List.map
             (fun wv ->
               Json.Obj
                 [
                   ("write", int_json wv.wv_write);
                   ( "blockers",
                     Json.Arr
                       (List.map
                          (fun (holder, res, at) ->
                            Json.Obj
                              [
                                ("holder", int_json holder);
                                ("resolution", Json.Str res);
                                ("at", if Float.is_nan at then Json.Null else Json.Num at);
                              ])
                          wv.wv_blockers) );
                   ( "drops",
                     Json.Arr
                       (List.map
                          (fun d ->
                            Json.Obj
                              [
                                ("msg", Json.Str d.d_msg);
                                ("holder", int_json d.d_holder);
                                ("cause", Json.Str (Event.drop_cause_name d.d_cause));
                                ("at", Json.Num d.d_at);
                              ])
                          wv.wv_drops) );
                 ])
             w.w_waits) );
      ( "timeline",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("phase", Json.Str (phase_name s.s_phase));
                   ("from", Json.Num s.s_from);
                   ("to", Json.Num s.s_to);
                 ])
             w.w_timeline) );
      ("explain", Json.Str w.w_explain);
    ]

let to_json r =
  Json.Obj
    [
      ("format", Json.Str "leases-latency/1");
      ( "ops",
        Json.Obj
          (List.map
             (fun ks ->
               ( op_kind_name ks.ks_kind,
                 Json.Obj
                   [
                     ("count", int_json ks.ks_count);
                     ("incomplete", int_json ks.ks_incomplete);
                     ("abandoned", int_json ks.ks_abandoned);
                     ("latency", summary_json ks.ks_latency);
                     ( "phases",
                       Json.Obj
                         (List.map (fun (p, s) -> (phase_name p, summary_json s)) ks.ks_phases) );
                   ] ))
             r.r_kinds) );
      ( "conservation",
        Json.Obj
          [ ("checked", int_json r.r_checked); ("max_abs_error", Json.Num r.r_max_err) ] );
      ("worst_writes", Json.Arr (List.map worst_json r.r_worst));
      ( "per_server",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("server", int_json s.srv_host);
                   ("ops", int_json s.srv_ops);
                   ("writes", int_json s.srv_writes);
                   ( "write_phase_sums",
                     Json.Obj
                       (List.map (fun (p, v) -> (phase_name p, Json.Num v)) s.srv_write_phase_sums)
                   );
                 ])
             r.r_servers) );
    ]

let export r = Json.to_string (to_json r) ^ "\n"

(* ---------------------------------------------------------------------- *)
(* Pretty printing                                                        *)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun ks ->
      if ks.ks_count > 0 || ks.ks_incomplete > 0 || ks.ks_abandoned > 0 then begin
        Format.fprintf ppf "%s ops: %d completed" (op_kind_name ks.ks_kind) ks.ks_count;
        if ks.ks_incomplete > 0 then Format.fprintf ppf ", %d incomplete" ks.ks_incomplete;
        if ks.ks_abandoned > 0 then Format.fprintf ppf ", %d abandoned" ks.ks_abandoned;
        Format.fprintf ppf "@,";
        if ks.ks_count > 0 then begin
          let s = ks.ks_latency in
          Format.fprintf ppf "  latency      p50=%.6g p90=%.6g p99=%.6g p99.9=%.6g sum=%.6g@,"
            s.Stats.Histogram.s_p50 s.Stats.Histogram.s_p90 s.Stats.Histogram.s_p99
            s.Stats.Histogram.s_p999 s.Stats.Histogram.s_sum;
          List.iter
            (fun (p, s) ->
              if s.Stats.Histogram.s_sum > 0. then
                Format.fprintf ppf "  %-12s p50=%.6g p90=%.6g p99=%.6g p99.9=%.6g sum=%.6g@,"
                  (phase_name p) s.Stats.Histogram.s_p50 s.Stats.Histogram.s_p90
                  s.Stats.Histogram.s_p99 s.Stats.Histogram.s_p999 s.Stats.Histogram.s_sum)
            ks.ks_phases
        end
      end)
    r.r_kinds;
  Format.fprintf ppf "conservation: %d ops checked, max |error| = %.3g s@," r.r_checked
    r.r_max_err;
  (match r.r_servers with
  | [] | [ _ ] -> ()
  | servers ->
    List.iter
      (fun s ->
        Format.fprintf ppf "server %d: %d ops, %d writes" s.srv_host s.srv_ops s.srv_writes;
        List.iter
          (fun (p, v) -> if v > 0. then Format.fprintf ppf ", %s %.6g s" (phase_name p) v)
          s.srv_write_phase_sums;
        Format.fprintf ppf "@,")
      servers);
  (match r.r_worst with
  | [] -> ()
  | worst ->
    Format.fprintf ppf "worst writes:@,";
    List.iter (fun w -> Format.fprintf ppf "  %s@," w.w_explain) worst);
  Format.fprintf ppf "@]"
