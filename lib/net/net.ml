open Simtime

type 'a envelope = { src : Host.Host_id.t; dst : Host.Host_id.t; payload : 'a }

type 'a t = {
  engine : Engine.t;
  liveness : Host.Liveness.t;
  partition : Partition.t;
  rng : Prng.Splitmix.t option;
  loss : float;
  prop_delay : Time.Span.t;
  proc_delay : Time.Span.t;
  mutable handlers : ('a envelope -> unit) option array;
      (** indexed by [Host_id.to_int]: one delivery lookup per message, on
          dense host ids — an array load, not a hash probe *)
  tracer : Trace.Sink.t;
  classify : 'a -> Trace.Event.msg_kind * int;
  mutable sent : int;
  mutable attempts : int;
  mutable deliveries : int;
  mutable dropped_loss : int;
  mutable dropped_partition : int;
  mutable dropped_down : int;
}

let create engine ?liveness ?partition ?rng ?(loss = 0.) ?(tracer = Trace.Sink.null)
    ?(classify = fun _ -> (Trace.Event.M_other "msg", -1)) ~prop_delay ~proc_delay () =
  if not (loss >= 0. && loss <= 1.) then invalid_arg "Net.create: loss must be in [0, 1]";
  if loss > 0. && rng = None then invalid_arg "Net.create: positive loss requires an rng";
  {
    engine;
    liveness = (match liveness with Some l -> l | None -> Host.Liveness.create ());
    partition = (match partition with Some p -> p | None -> Partition.create ());
    rng;
    loss;
    prop_delay;
    proc_delay;
    handlers = [||];
    tracer;
    classify;
    sent = 0;
    attempts = 0;
    deliveries = 0;
    dropped_loss = 0;
    dropped_partition = 0;
    dropped_down = 0;
  }

let register t host handler =
  let idx = Host.Host_id.to_int host in
  let cap = Array.length t.handlers in
  if idx >= cap then begin
    let cap' = Int.max 16 (Int.max (idx + 1) (2 * cap)) in
    let handlers' = Array.make cap' None in
    Array.blit t.handlers 0 handlers' 0 cap;
    t.handlers <- handlers'
  end;
  t.handlers.(idx) <- Some handler

let handler_for t host =
  let idx = Host.Host_id.to_int host in
  if idx < Array.length t.handlers then Array.unsafe_get t.handlers idx else None

let transit t = Time.Span.add t.proc_delay (Time.Span.add t.prop_delay t.proc_delay)

let lost t =
  match t.rng with
  | Some rng when t.loss > 0. -> Prng.Splitmix.bool rng ~p:t.loss
  | Some _ | None -> false

let trace_point t ~src ~dst payload make =
  if Trace.Sink.enabled t.tracer then begin
    let kind, corr = t.classify payload in
    Trace.Sink.emit t.tracer
      (Time.to_sec (Engine.now t.engine))
      (make ~src:(Host.Host_id.to_int src) ~dst:(Host.Host_id.to_int dst) ~kind ~corr)
  end

(* One delivery attempt toward [dst]; transit time is sender processing +
   propagation + receiver processing.  Every failure mode — loss included —
   is decided when the message would physically arrive, so drop traces
   carry the drop instant, not the send instant, and stream order matches
   physical order. *)
let deliver_one t ~src ~dst payload =
  t.attempts <- t.attempts + 1;
  trace_point t ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
      Trace.Event.Net_send { src; dst; kind; corr });
  let transit = transit t in
  let attempt () =
    (let p = Engine.profiler t.engine in
     if Profile.Recorder.enabled p then Profile.Recorder.mark p Profile.Center.Net_delivery);
    if lost t then begin
      t.dropped_loss <- t.dropped_loss + 1;
      trace_point t ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
          Trace.Event.Net_drop { src; dst; kind; corr; cause = Trace.Event.Loss })
    end
    else if not (Host.Liveness.is_up t.liveness dst) then begin
      t.dropped_down <- t.dropped_down + 1;
      trace_point t ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
          Trace.Event.Net_drop { src; dst; kind; corr; cause = Trace.Event.Down })
    end
    else if not (Partition.connected t.partition src dst) then begin
      t.dropped_partition <- t.dropped_partition + 1;
      trace_point t ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
          Trace.Event.Net_drop { src; dst; kind; corr; cause = Trace.Event.Partition })
    end
    else begin
      match handler_for t dst with
      | None ->
        t.dropped_down <- t.dropped_down + 1;
        trace_point t ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
            Trace.Event.Net_drop { src; dst; kind; corr; cause = Trace.Event.Down })
      | Some handler ->
        t.deliveries <- t.deliveries + 1;
        trace_point t ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
            Trace.Event.Net_deliver { src; dst; kind; corr });
        handler { src; dst; payload }
    end
  in
  ignore (Engine.schedule_after t.engine transit attempt)

(* A crashed sender's packets die on its own interface: one [dropped_down]
   per destination, the same unit as every delivery-time drop, so
   [attempts = deliveries + dropped_loss + dropped_partition + dropped_down]
   reconciles once the queue drains. *)
let drop_at_sender t ~dsts =
  t.attempts <- t.attempts + List.length dsts;
  t.dropped_down <- t.dropped_down + List.length dsts

let dead_sender t ~src ~dsts payload =
  drop_at_sender t ~dsts;
  List.iter
    (fun dst ->
      trace_point t ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
          Trace.Event.Net_drop { src; dst; kind; corr; cause = Trace.Event.Down }))
    dsts

let send t ~src ~dst payload =
  t.sent <- t.sent + 1;
  if Host.Liveness.is_up t.liveness src then deliver_one t ~src ~dst payload
  else dead_sender t ~src ~dsts:[ dst ] payload

let multicast t ~src ~dsts payload =
  t.sent <- t.sent + 1;
  if Host.Liveness.is_up t.liveness src then
    List.iter (fun dst -> deliver_one t ~src ~dst payload) dsts
  else dead_sender t ~src ~dsts payload

let sent t = t.sent
let attempts t = t.attempts
let deliveries t = t.deliveries
let dropped_loss t = t.dropped_loss
let dropped_partition t = t.dropped_partition
let dropped_down t = t.dropped_down

let unicast_rtt t =
  let twice s = Time.Span.scale 2. s in
  Time.Span.add (twice t.prop_delay) (twice (twice t.proc_delay))

let prop_delay t = t.prop_delay
let proc_delay t = t.proc_delay
