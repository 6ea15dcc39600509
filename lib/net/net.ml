open Simtime

type 'a envelope = { src : Host.Host_id.t; dst : Host.Host_id.t; payload : 'a }

(* Everything a delivery reads and counts: the net less the lane that
   schedules deliveries, whose handler closes over the wire. *)
type 'a wire = {
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

type 'a t = { wire : 'a wire; transit : Time.Span.t; lane : 'a envelope Engine.lane }

let handler_for w host =
  let idx = Host.Host_id.to_int host in
  if idx < Array.length w.handlers then Array.unsafe_get w.handlers idx else None

let lost w =
  match w.rng with
  | Some rng when w.loss > 0. -> Prng.Splitmix.bool rng ~p:w.loss
  | Some _ | None -> false

let trace_point w ~src ~dst payload make =
  if Trace.Sink.enabled w.tracer then begin
    let kind, corr = w.classify payload in
    Trace.Sink.emit w.tracer
      (Time.to_sec (Engine.now w.engine))
      (make ~src:(Host.Host_id.to_int src) ~dst:(Host.Host_id.to_int dst) ~kind ~corr)
  end

(* A message arrives: every failure mode — loss included — is decided
   now, when it would physically arrive, so drop traces carry the drop
   instant, not the send instant, and stream order matches physical
   order.  The envelope built at the send is the one the handler gets. *)
let arrive w ({ src; dst; payload } as envelope) =
  (let p = Engine.profiler w.engine in
   if Profile.Recorder.enabled p then Profile.Recorder.mark p Profile.Center.Net_delivery);
  if lost w then begin
    w.dropped_loss <- w.dropped_loss + 1;
    trace_point w ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
        Trace.Event.Net_drop { src; dst; kind; corr; cause = Trace.Event.Loss })
  end
  else if not (Host.Liveness.is_up w.liveness dst) then begin
    w.dropped_down <- w.dropped_down + 1;
    trace_point w ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
        Trace.Event.Net_drop { src; dst; kind; corr; cause = Trace.Event.Down })
  end
  else if not (Partition.connected w.partition src dst) then begin
    w.dropped_partition <- w.dropped_partition + 1;
    trace_point w ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
        Trace.Event.Net_drop { src; dst; kind; corr; cause = Trace.Event.Partition })
  end
  else begin
    match handler_for w dst with
    | None ->
      w.dropped_down <- w.dropped_down + 1;
      trace_point w ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
          Trace.Event.Net_drop { src; dst; kind; corr; cause = Trace.Event.Down })
    | Some handler ->
      w.deliveries <- w.deliveries + 1;
      trace_point w ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
          Trace.Event.Net_deliver { src; dst; kind; corr });
      handler envelope
  end

let create engine ?liveness ?partition ?rng ?(loss = 0.) ?(tracer = Trace.Sink.null)
    ?(classify = fun _ -> (Trace.Event.M_other "msg", -1)) ~prop_delay ~proc_delay () =
  if not (loss >= 0. && loss <= 1.) then invalid_arg "Net.create: loss must be in [0, 1]";
  if loss > 0. && rng = None then invalid_arg "Net.create: positive loss requires an rng";
  let wire =
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
  in
  {
    wire;
    transit = Time.Span.add proc_delay (Time.Span.add prop_delay proc_delay);
    lane = Engine.lane engine (fun _ envelope -> arrive wire envelope);
  }

let register t host handler =
  let w = t.wire in
  let idx = Host.Host_id.to_int host in
  let cap = Array.length w.handlers in
  if idx >= cap then begin
    let cap' = Int.max 16 (Int.max (idx + 1) (2 * cap)) in
    let handlers' = Array.make cap' None in
    Array.blit w.handlers 0 handlers' 0 cap;
    w.handlers <- handlers'
  end;
  w.handlers.(idx) <- Some handler

let transit t = t.transit
let engine t = t.wire.engine

(* One delivery attempt toward [dst]; transit time is sender processing +
   propagation + receiver processing.  Every message takes the same
   transit, so deliveries are pushed in (instant, sequence) order and ride
   the net's lane, allocating only their envelope.  A delay other than
   [transit] would break that order and belongs on the engine's heap. *)
let deliver_one t ~src ~dst payload =
  let w = t.wire in
  w.attempts <- w.attempts + 1;
  trace_point w ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
      Trace.Event.Net_send { src; dst; kind; corr });
  Engine.lane_push t.lane (Time.add (Engine.now w.engine) t.transit) { src; dst; payload }

(* A crashed sender's packets die on its own interface: one [dropped_down]
   per destination, the same unit as every delivery-time drop, so
   [attempts = deliveries + dropped_loss + dropped_partition + dropped_down]
   reconciles once the queue drains. *)
let dead_sender w ~src ~dsts payload =
  w.attempts <- w.attempts + List.length dsts;
  w.dropped_down <- w.dropped_down + List.length dsts;
  List.iter
    (fun dst ->
      trace_point w ~src ~dst payload (fun ~src ~dst ~kind ~corr ->
          Trace.Event.Net_drop { src; dst; kind; corr; cause = Trace.Event.Down }))
    dsts

let send t ~src ~dst payload =
  let w = t.wire in
  w.sent <- w.sent + 1;
  if Host.Liveness.is_up w.liveness src then deliver_one t ~src ~dst payload
  else dead_sender w ~src ~dsts:[ dst ] payload

let multicast t ~src ~dsts payload =
  let w = t.wire in
  w.sent <- w.sent + 1;
  if Host.Liveness.is_up w.liveness src then
    List.iter (fun dst -> deliver_one t ~src ~dst payload) dsts
  else dead_sender w ~src ~dsts payload

let sent t = t.wire.sent
let attempts t = t.wire.attempts
let deliveries t = t.wire.deliveries
let dropped_loss t = t.wire.dropped_loss
let dropped_partition t = t.wire.dropped_partition
let dropped_down t = t.wire.dropped_down

let unicast_rtt t =
  let twice s = Time.Span.scale 2. s in
  Time.Span.add (twice t.wire.prop_delay) (twice (twice t.wire.proc_delay))

let prop_delay t = t.wire.prop_delay
let proc_delay t = t.wire.proc_delay
