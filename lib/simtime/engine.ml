(* A lane is a ring of (at, seq, item) entries pushed in (at, seq) order,
   so its head is always its earliest entry: firing one costs a load at
   the head, where the heap would have paid a sift.  Items sit in an
   [Obj.t] array so that a fired slot can be overwritten with an
   immediate whatever ['a] is — no value of ['a] exists to fill it with,
   and the fired item must not stay reachable until the ring wraps round
   to its slot. *)
type 'a lane = {
  owner : t;
  mutable ats : int array;  (** [Time.to_us] of each entry *)
  mutable seqs : int array;
  mutable items : Obj.t array;
  mutable head : int;
  mutable len : int;
  mutable tail_at : int;  (** the last pushed instant; [min_int] before any *)
  fire : 'a lane -> 'a -> unit;
}

and packed = Lane : 'a lane -> packed [@@unboxed]

and t = {
  mutable now : Time.t;
  queue : (unit -> unit) Event_queue.t;
  mutable lanes : packed array;
  mutable lane_len : int;  (** entries over every lane *)
  mutable next_at : int;  (** the instant of the event {!pick} chose *)
  mutable tracer : Trace.Sink.t;
  mutable next_beat : Time.t;
  mutable profiler : Profile.Recorder.t;
}

let heartbeat = Time.Span.of_sec 1.

type handle = (unit -> unit) Event_queue.handle

let create () =
  {
    now = Time.zero;
    queue = Event_queue.create ();
    lanes = [||];
    lane_len = 0;
    next_at = max_int;
    tracer = Trace.Sink.null;
    next_beat = Time.zero;
    profiler = Profile.Recorder.null;
  }

let set_tracer t sink =
  t.tracer <- sink;
  t.next_beat <- t.now

let tracer t = t.tracer

let set_profiler t p = t.profiler <- p

let profiler t = t.profiler

let now t = t.now

let pending t = Event_queue.length t.queue + t.lane_len

let schedule_at t ?daemon at callback =
  if Time.(at < t.now) then
    invalid_arg
      (Format.asprintf "Engine.schedule_at: %a is in the past (now %a)" Time.pp at Time.pp t.now);
  Event_queue.push t.queue ?daemon ~at callback

let schedule_after t ?daemon delay callback =
  if Time.Span.is_negative delay then
    invalid_arg
      (Format.asprintf "Engine.schedule_after: negative delay %a" Time.Span.pp delay);
  schedule_at t ?daemon (Time.add t.now delay) callback

let cancel = Event_queue.cancel

(* --- lanes ------------------------------------------------------------ *)

let lane t fire =
  let l =
    { owner = t; ats = [||]; seqs = [||]; items = [||]; head = 0; len = 0; tail_at = min_int; fire }
  in
  t.lanes <- Array.append t.lanes [| Lane l |];
  l

(* Double the ring (16 slots at least), unwrapping it to start at 0. *)
let grow_lane l =
  let cap = Array.length l.ats in
  let cap' = Int.max 16 (2 * cap) in
  let ats = Array.make cap' 0 and seqs = Array.make cap' 0 in
  let items = Array.make cap' (Obj.repr 0) in
  for k = 0 to l.len - 1 do
    let i = (l.head + k) land (cap - 1) in
    Array.unsafe_set ats k (Array.unsafe_get l.ats i);
    Array.unsafe_set seqs k (Array.unsafe_get l.seqs i);
    Array.unsafe_set items k (Array.unsafe_get l.items i)
  done;
  l.ats <- ats;
  l.seqs <- seqs;
  l.items <- items;
  l.head <- 0

let refuse_push at what bound =
  invalid_arg
    (Format.asprintf "Engine.lane_push: %a is before %s %a" Time.pp at what Time.pp bound)

(* The seq is taken here, where a heap push would take it, so an entry
   ties with heap events exactly as it would inside the heap. *)
let lane_push l at item =
  let t = l.owner in
  let at_us = Time.to_us at in
  if Time.(at < t.now) then refuse_push at "now" t.now;
  if at_us < l.tail_at then refuse_push at "the lane's tail" (Time.of_us l.tail_at);
  if l.len = Array.length l.ats then grow_lane l;
  let i = (l.head + l.len) land (Array.length l.ats - 1) in
  Array.unsafe_set l.ats i at_us;
  Array.unsafe_set l.seqs i (Event_queue.take_seq t.queue);
  Array.unsafe_set l.items i (Obj.repr item);
  l.len <- l.len + 1;
  l.tail_at <- at_us;
  t.lane_len <- t.lane_len + 1

(* --- dispatch --------------------------------------------------------- *)

let from_heap = -1
let nothing = -2

(* The earliest pending event by (at, seq): [from_heap], the index of the
   lane whose head it is, or [nothing].  Its instant goes to [next_at]. *)
let pick t =
  let q = t.queue in
  let best = ref (if Event_queue.is_empty q then nothing else from_heap) in
  let best_at = ref (Event_queue.next_us q) and best_seq = ref (Event_queue.top_seq q) in
  if t.lane_len > 0 then
    for k = 0 to Array.length t.lanes - 1 do
      let (Lane l) = Array.unsafe_get t.lanes k in
      if l.len > 0 then begin
        let at = Array.unsafe_get l.ats l.head and seq = Array.unsafe_get l.seqs l.head in
        if at < !best_at || (at = !best_at && seq < !best_seq) then begin
          best := k;
          best_at := at;
          best_seq := seq
        end
      end
    done;
  t.next_at <- !best_at;
  !best

let arrive t at =
  t.now <- at;
  (* Bounded-rate engine sample: at most one heartbeat per [heartbeat]
     of sim time, emitted piggyback on a real event so the tracer never
     schedules work of its own. *)
  if Trace.Sink.enabled t.tracer && Time.(at >= t.next_beat) then (
    Trace.Sink.emit t.tracer (Time.to_sec at) (Trace.Event.Heartbeat { pending = pending t });
    t.next_beat <- Time.add at heartbeat)

(* The single dispatch site, for heap and lane events alike.  With the
   profiler disabled this is one load and one branch (the trace-guard
   pattern); enabled, the event's wall time and allocation are attributed
   to whatever cost center the callback marks — [Other] if it never
   does. *)
let[@inline] dispatch t f x y =
  let prof = t.profiler in
  if Profile.Recorder.enabled prof then begin
    Profile.Recorder.event_begin prof;
    f x y;
    Profile.Recorder.event_end prof ~sim_now:(Time.to_sec t.now) ~queue_depth:(pending t)
      ~pushed:(Event_queue.total_pushed t.queue)
      ~cancelled:(Event_queue.total_cancelled t.queue)
  end
  else f x y

let apply callback () = callback ()

(* Fire the event [pick] chose.  The entry leaves its heap or lane before
   the heartbeat reads [pending], as a popped heap event always has. *)
let fire t k =
  if k = from_heap then begin
    let entry = Event_queue.pop_top t.queue in
    arrive t (Event_queue.event_at entry);
    dispatch t apply (Event_queue.event_payload entry) ()
  end
  else begin
    let (Lane l) = t.lanes.(k) in
    let i = l.head in
    let at = Array.unsafe_get l.ats i in
    let item = Obj.obj (Array.unsafe_get l.items i) in
    Array.unsafe_set l.items i (Obj.repr 0);
    l.head <- (i + 1) land (Array.length l.ats - 1);
    l.len <- l.len - 1;
    t.lane_len <- t.lane_len - 1;
    arrive t (Time.of_us at);
    dispatch t l.fire l item
  end

let step t =
  let k = pick t in
  if k = nothing then false
  else begin
    fire t k;
    true
  end

let run ?until t =
  (match until with
  | None ->
    (* Unbounded runs drain the *work*: daemon maintenance events (lease
       sweeps and the like) still fire while real events remain ahead of
       them, but never extend the run on their own — otherwise a
       run-to-quiescence simulation would end at the whim of whatever
       background cadence happened to be armed.  Lane entries are never
       daemon, and pending work implies [pick] finds an event. *)
    while Event_queue.live_nondaemon t.queue + t.lane_len > 0 do
      fire t (pick t)
    done
  | Some limit ->
    let limit_us = Time.to_us limit in
    let k = ref (pick t) in
    while !k <> nothing && t.next_at <= limit_us do
      fire t !k;
      k := pick t
    done);
  (* When bounded, land exactly on the limit so callers can resume cleanly. *)
  match until with
  | Some limit when Time.(t.now < limit) -> t.now <- limit
  | Some _ | None -> ()
