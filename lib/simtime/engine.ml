type t = {
  mutable now : Time.t;
  queue : (unit -> unit) Event_queue.t;
  mutable tracer : Trace.Sink.t;
  mutable heartbeat : Time.span;
  mutable next_beat : Time.t;
  mutable profiler : Profile.Recorder.t;
}

type handle = (unit -> unit) Event_queue.handle

let create () =
  {
    now = Time.zero;
    queue = Event_queue.create ();
    tracer = Trace.Sink.null;
    heartbeat = Time.Span.of_sec 1.;
    next_beat = Time.zero;
    profiler = Profile.Recorder.null;
  }

let set_tracer ?heartbeat t sink =
  t.tracer <- sink;
  (match heartbeat with
  | Some hb ->
    if Time.Span.is_negative hb then invalid_arg "Engine.set_tracer: negative heartbeat";
    t.heartbeat <- hb
  | None -> ());
  t.next_beat <- t.now

let tracer t = t.tracer

let set_profiler t p = t.profiler <- p

let profiler t = t.profiler

let now t = t.now

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

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    let entry = Event_queue.pop_top t.queue in
    let at = Event_queue.event_at entry in
    let callback = Event_queue.event_payload entry in
    t.now <- at;
    (* Bounded-rate engine sample: at most one heartbeat per [heartbeat]
       interval of sim time, emitted piggyback on a real event so the
       tracer never schedules work of its own. *)
    if Trace.Sink.enabled t.tracer && Time.(at >= t.next_beat) then (
      Trace.Sink.emit t.tracer (Time.to_sec at)
        (Trace.Event.Heartbeat { pending = Event_queue.length t.queue });
      t.next_beat <- Time.add at t.heartbeat);
    (* The single dispatch site.  With the profiler disabled this is one
       load and one branch (the trace-guard pattern); enabled, the event's
       wall time and allocation are attributed to whatever cost center the
       callback marks — [Other] if it never does. *)
    let prof = t.profiler in
    if Profile.Recorder.enabled prof then begin
      Profile.Recorder.event_begin prof;
      callback ();
      Profile.Recorder.event_end prof ~sim_now:(Time.to_sec t.now)
        ~queue_depth:(Event_queue.length t.queue)
        ~occupied_slots:(Event_queue.occupied_slots t.queue)
        ~pushed:(Event_queue.total_pushed t.queue)
        ~cancelled:(Event_queue.total_cancelled t.queue)
    end
    else callback ();
    true
  end

let run ?until t =
  (* The continue checks are non-allocating — [next_us] rather than the
     option-boxing [peek_time] — because they run once per event. *)
  (match until with
  | None ->
    (* Unbounded runs drain the *work*: daemon maintenance events (lease
       sweeps and the like) still fire while real events remain ahead of
       them, but never extend the run on their own — otherwise a
       run-to-quiescence simulation would end at the whim of whatever
       background cadence happened to be armed.  A live non-daemon event
       implies a non-empty queue, so [step] always pops. *)
    while Event_queue.live_nondaemon t.queue > 0 do
      ignore (step t)
    done
  | Some limit ->
    let limit_us = Time.to_us limit in
    while Event_queue.next_us t.queue <= limit_us do
      ignore (step t)
    done);
  (* When bounded, land exactly on the limit so callers can resume cleanly. *)
  match until with
  | Some limit when Time.(t.now < limit) -> t.now <- limit
  | Some _ | None -> ()

let pending t = Event_queue.length t.queue
