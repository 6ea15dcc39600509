(* Self-profiling recorder for the simulation engine.

   The recorder is a slice machine: it keeps exactly one open cost center
   at a time, and every transition (event begin/end, mark, enter, exit)
   charges the wall time and allocation words elapsed since the previous
   transition to the center that was open.  Total measured time is the sum
   of the slices by construction, so nested centers can never double-count
   — the qcheck suite in test_profile.ml drives this invariant with
   deterministic fake clocks.

   Guard discipline mirrors the trace sink: the [null] recorder has
   [enabled = false] and every probe entry point checks it first, so a
   disabled probe costs one load and one branch.  perfbench's
   [simtime.dispatch_ns] prices that residual at the engine's dispatch
   site, and test_profile.ml bounds it against a bare queue push/pop. *)

type stats = {
  mutable hits : int;  (** times the center was entered via mark/enter *)
  mutable wall_s : float;
  mutable minor_words : float;
  mutable major_words : float;
}

type sample = {
  s_t : float;  (** sim seconds at capture *)
  s_queue_depth : int;  (** live scheduled events *)
  s_cancel_ratio : float;  (** cancels per push within the window *)
  s_events : int;  (** events dispatched within the window *)
  s_events_per_sim_s : float;
}

type t = {
  enabled : bool;
  timer : unit -> float;
  words : unit -> float * float;
  interval_s : float;
  stats : stats array;  (* indexed by Center.index *)
  mutable stack : int array;
  mutable depth : int;
  mutable cur : int;
  mutable epoch_t : float;
  mutable epoch_minor : float;
  mutable epoch_major : float;
  mutable started : bool;
  mutable stopped : bool;
  mutable t_start : float;
  mutable t_stop : float;
  mutable events : int;
  mutable next_sample_t : float;
  mutable last_sample_t : float;
  mutable last_sample_events : int;
  mutable last_pushed : int;
  mutable last_cancelled : int;
  mutable rev_samples : sample list;
}

let idx_dispatch = Center.index Center.Engine_dispatch
let idx_other = Center.index Center.Other

let mk_stats () =
  Array.init Center.count (fun _ ->
      { hits = 0; wall_s = 0.; minor_words = 0.; major_words = 0. })

let null =
  {
    enabled = false;
    timer = (fun () -> 0.);
    words = (fun () -> (0., 0.));
    interval_s = 1.;
    stats = mk_stats ();
    stack = [||];
    depth = 0;
    cur = idx_dispatch;
    epoch_t = 0.;
    epoch_minor = 0.;
    epoch_major = 0.;
    started = false;
    stopped = false;
    t_start = 0.;
    t_stop = 0.;
    events = 0;
    next_sample_t = 0.;
    last_sample_t = 0.;
    last_sample_events = 0;
    last_pushed = 0;
    last_cancelled = 0;
    rev_samples = [];
  }

(* [Gc.counters] reads the calling domain's counters directly; the same two
   fields of [Gc.quick_stat] cost over a microsecond (it totals the stats
   of every domain), and this runs on every slice. *)
let gc_words () =
  let minor, _, major = Gc.counters () in
  (minor, major)

let create ?(interval_s = 10.) ?(words = gc_words) ~timer () =
  if interval_s <= 0. || not (Float.is_finite interval_s) then
    invalid_arg "Profile.Recorder.create: interval must be positive and finite";
  {
    null with
    enabled = true;
    timer;
    words;
    interval_s;
    stats = mk_stats ();
    stack = Array.make 16 idx_dispatch;
    next_sample_t = interval_s;
  }

let enabled t = t.enabled

let interval_s t = t.interval_s

(* Charge the slice since the last transition to the open center and reset
   the epoch.  Every entry point below funnels through here, which is what
   makes the accounting exact. *)
let charge t =
  let now = t.timer () in
  let minor, major = t.words () in
  let s = t.stats.(t.cur) in
  s.wall_s <- s.wall_s +. (now -. t.epoch_t);
  s.minor_words <- s.minor_words +. (minor -. t.epoch_minor);
  s.major_words <- s.major_words +. (major -. t.epoch_major);
  t.epoch_t <- now;
  t.epoch_minor <- minor;
  t.epoch_major <- major

let start t =
  if t.enabled && not t.started then begin
    t.started <- true;
    let minor, major = t.words () in
    t.t_start <- t.timer ();
    t.epoch_t <- t.t_start;
    t.epoch_minor <- minor;
    t.epoch_major <- major;
    t.cur <- idx_dispatch;
    t.depth <- 0
  end

let push_frame t c =
  if t.depth >= Array.length t.stack then begin
    let bigger = Array.make (2 * Array.length t.stack) idx_dispatch in
    Array.blit t.stack 0 bigger 0 t.depth;
    t.stack <- bigger
  end;
  t.stack.(t.depth) <- t.cur;
  t.depth <- t.depth + 1;
  t.cur <- c

let event_begin t =
  if t.enabled then begin
    if not t.started then start t;
    charge t;
    push_frame t idx_other;
    t.events <- t.events + 1
  end

let mark t center =
  if t.enabled && t.started then begin
    charge t;
    let i = Center.index center in
    t.cur <- i;
    t.stats.(i).hits <- t.stats.(i).hits + 1
  end

let enter t center =
  if t.enabled && t.started then begin
    charge t;
    push_frame t (Center.index center);
    let i = t.cur in
    t.stats.(i).hits <- t.stats.(i).hits + 1
  end

let exit t =
  if t.enabled && t.started && t.depth > 0 then begin
    charge t;
    t.depth <- t.depth - 1;
    t.cur <- t.stack.(t.depth)
  end

let take_sample t ~sim_now ~queue_depth ~pushed ~cancelled =
  let window_events = t.events - t.last_sample_events in
  let window_pushes = pushed - t.last_pushed in
  let window_cancels = cancelled - t.last_cancelled in
  let dt = sim_now -. t.last_sample_t in
  let sample =
    {
      s_t = sim_now;
      s_queue_depth = queue_depth;
      s_cancel_ratio =
        (if window_pushes = 0 then 0.
         else float_of_int window_cancels /. float_of_int window_pushes);
      s_events = window_events;
      s_events_per_sim_s = (if dt <= 0. then 0. else float_of_int window_events /. dt);
    }
  in
  t.rev_samples <- sample :: t.rev_samples;
  t.last_sample_t <- sim_now;
  t.last_sample_events <- t.events;
  t.last_pushed <- pushed;
  t.last_cancelled <- cancelled;
  (* Next boundary on the cadence grid, so long event gaps skip whole
     windows instead of emitting a burst of stale samples. *)
  t.next_sample_t <- t.interval_s *. (Float.of_int (int_of_float (sim_now /. t.interval_s)) +. 1.)

let event_end t ~sim_now ~queue_depth ~pushed ~cancelled =
  if t.enabled && t.started then begin
    charge t;
    (* Unwind any span the callback left open (charges were already taken at
       each transition, so this is pure bookkeeping). *)
    t.depth <- 0;
    t.cur <- idx_dispatch;
    if sim_now >= t.next_sample_t then
      take_sample t ~sim_now ~queue_depth ~pushed ~cancelled
  end

let stop t =
  if t.enabled && t.started && not t.stopped then begin
    charge t;
    t.depth <- 0;
    t.cur <- idx_dispatch;
    t.stopped <- true;
    t.t_stop <- t.epoch_t
  end

type row = {
  r_center : Center.t;
  r_hits : int;
  r_wall_s : float;
  r_minor_words : float;
  r_major_words : float;
}

let rows t =
  List.map
    (fun c ->
      let s = t.stats.(Center.index c) in
      {
        r_center = c;
        r_hits = s.hits;
        r_wall_s = s.wall_s;
        r_minor_words = s.minor_words;
        r_major_words = s.major_words;
      })
    Center.all

let events_total t = t.events

let wall_total_s t = Array.fold_left (fun acc s -> acc +. s.wall_s) 0. t.stats

let minor_words_total t = Array.fold_left (fun acc s -> acc +. s.minor_words) 0. t.stats

let major_words_total t = Array.fold_left (fun acc s -> acc +. s.major_words) 0. t.stats

let measured_wall_s t = if t.stopped then t.t_stop -. t.t_start else wall_total_s t

let samples t = List.rev t.rev_samples
