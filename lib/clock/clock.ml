open Simtime

(* Outstanding timers by id.  [reschedule_timers] re-arms them in table
   order, and that order fixes the engine sequence numbers the re-armed
   events get, so the table keeps the stdlib's [Hashtbl.hash] (seed 0) and
   with it a stdlib [Hashtbl]'s bucket order.  Only the equality is
   specialised to ints.  Most clocks never arm a timer (a client without
   anticipatory renewal), so a clock creates its table on its first
   [schedule_at_local], with the 16 buckets that order was pinned at. *)
module Timer_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  engine : Engine.t;
  mutable base_engine : Time.t;
  mutable base_local : Time.t;
  mutable rate : float;
  mutable timers : timer Timer_tbl.t option;  (** [None] until the first timer *)
  mutable next_timer : int;
}

and timer = {
  owner : t;
  deadline : Time.t;  (** local *)
  callback : unit -> unit;
  id : int;
  daemon : bool;  (** carried onto every engine event this timer arms *)
  mutable engine_event : Engine.handle option;
  mutable live : bool;
}

let create engine ?(offset = Time.Span.zero) ?(drift = 0.) () =
  if drift <= -1. then invalid_arg "Clock.create: drift must exceed -1";
  if not (Float.is_finite drift) then invalid_arg "Clock.create: drift must be finite";
  let now = Engine.now engine in
  {
    engine;
    base_engine = now;
    base_local = Time.add now offset;
    rate = 1. +. drift;
    timers = None;
    next_timer = 0;
  }

(* Read on every protocol action; the drift-free case (rate exactly 1, the
   default) must not round-trip through floats. *)
let now t =
  let elapsed = Time.diff (Engine.now t.engine) t.base_engine in
  if t.rate = 1. then Time.add t.base_local elapsed
  else Time.add t.base_local (Time.Span.scale t.rate elapsed)

let drift t = t.rate -. 1.

let rebase t =
  let local = now t in
  t.base_engine <- Engine.now t.engine;
  t.base_local <- local

let engine_time_of_local t local =
  let engine_now = Engine.now t.engine in
  let local_now = now t in
  if Time.(local <= local_now) then engine_now
  else begin
    let remaining_local = Time.diff local local_now in
    let remaining_engine =
      if t.rate = 1. then remaining_local else Time.Span.scale (1. /. t.rate) remaining_local
    in
    Time.add engine_now remaining_engine
  end

(* Drop a live timer from its clock's table, which arming it created. *)
let forget c tm = match c.timers with Some timers -> Timer_tbl.remove timers tm.id | None -> ()

(* A local-deadline timer stays registered in [t.timers] until it fires or
   is cancelled.  [arm] converts the local deadline to an engine instant at
   the current rate; [fire] re-checks the local clock before running the
   callback, so a timer armed under one rate never runs while the clock —
   after a later [set_drift] or backward [step] — has yet to reach its
   deadline.  The conversion rounds to the microsecond grid, so when the
   deadline is still in the local future but the remaining engine span
   rounds to zero we push the event one microsecond out rather than spin
   at the current instant. *)
let rec arm_timer c tm =
  let target = engine_time_of_local c tm.deadline in
  let now_e = Engine.now c.engine in
  let target =
    if Time.(target > now_e) || Time.(now c >= tm.deadline) then target
    else Time.add now_e (Time.Span.of_us 1)
  in
  tm.engine_event <-
    Some (Engine.schedule_at c.engine ~daemon:tm.daemon target (fun () -> fire_timer c tm))

and fire_timer c tm =
  (* Timer bookkeeping is its own cost center until the callback refines
     it (renewal, expiry, ...). *)
  (let p = Engine.profiler c.engine in
   if Profile.Recorder.enabled p then Profile.Recorder.mark p Profile.Center.Timer_fire);
  tm.engine_event <- None;
  if tm.live then begin
    if Time.(now c >= tm.deadline) then begin
      tm.live <- false;
      forget c tm;
      tm.callback ()
    end
    else arm_timer c tm
  end

(* Re-derive every outstanding timer's engine instant after a rate change
   or step.  [arm_timer] only touches the engine queue, never [c.timers],
   so iterating while re-arming is safe. *)
let reschedule_timers c =
  match c.timers with
  | None -> ()
  | Some timers ->
    Timer_tbl.iter
      (fun _ tm ->
        (match tm.engine_event with Some h -> Engine.cancel h | None -> ());
        arm_timer c tm)
      timers

let set_drift t drift =
  if drift <= -1. then invalid_arg "Clock.set_drift: drift must exceed -1";
  if not (Float.is_finite drift) then invalid_arg "Clock.set_drift: drift must be finite";
  rebase t;
  t.rate <- 1. +. drift;
  reschedule_timers t

let step t span =
  rebase t;
  t.base_local <- Time.add t.base_local span;
  reschedule_timers t

let schedule_at_local t ?(daemon = false) local callback =
  let tm =
    {
      owner = t;
      deadline = local;
      callback;
      id = t.next_timer;
      daemon;
      engine_event = None;
      live = true;
    }
  in
  t.next_timer <- t.next_timer + 1;
  let timers =
    match t.timers with
    | Some timers -> timers
    | None ->
      let timers = Timer_tbl.create 16 in
      t.timers <- Some timers;
      timers
  in
  Timer_tbl.replace timers tm.id tm;
  arm_timer t tm;
  tm

let cancel_timer tm =
  if tm.live then begin
    tm.live <- false;
    forget tm.owner tm;
    (match tm.engine_event with Some h -> Engine.cancel h | None -> ());
    tm.engine_event <- None
  end

let pending_local_timers t = match t.timers with Some timers -> Timer_tbl.length timers | None -> 0
