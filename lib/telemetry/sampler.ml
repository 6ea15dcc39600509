open Simtime
module Server = Leases.Server
module Client = Leases.Client
module Breakdown = Leases.Breakdown

type window = {
  w_index : int;
  t_start : float;
  t_end : float;
  counters : (string * int) list;
  deltas : (string * int) list;
  reads : int;
  hits : int;
  misses : int;
  commits : int;
  extension_msgs : int;
  approval_msgs : int;
  installed_msgs : int;
  write_transfer_msgs : int;
  read_delay_sum : float;
  read_delay_count : int;
  write_delay_sum : float;
  write_delay_count : int;
  lease_files : int;
  lease_records : int;
  lease_records_live : int;
  pending_writes : int;
  queued_writes : int;
  client_inflight : int;
  client_queued_ops : int;
  in_flight_msgs : int;
  server_up : bool;
  server_recovering : bool;
  skews : (string * float) list;
  by_entity : (string * (int * int) list) list;
  write_phase_sums : (string * float) list;
}

type scalars = {
  mutable p_hits : int;
  mutable p_misses : int;
  mutable p_commits : int;
  mutable p_ext : int;
  mutable p_app : int;
  mutable p_inst : int;
  mutable p_wt : int;
  mutable p_read_sum : float;
  mutable p_read_count : int;
  mutable p_write_sum : float;
  mutable p_write_count : int;
}

(* The merged counter namespace -- the server registry under "server/",
   client i's under "client/<i>/" -- resolved into parallel arrays sorted
   by name, with each counter's value at the previous sample. *)
type namespace = {
  sizes : int array;  (* each registry's size when resolved *)
  names : string array;
  cells : Stats.Counter.t array;
  prev : int array;
}

let unresolved = { sizes = [||]; names = [||]; cells = [||]; prev = [||] }

(* What [attach] resolves once, so a sample reads ints. *)
type attached = {
  inst : Leases.Sim.instruments;
  registries : (string * Stats.Counter.Registry.t) array;  (* prefix, registry *)
  mutable namespace : namespace;
  client_labels : string array;  (* skew keys: "client/0", ... *)
  axes : (string * Breakdown.axis) list;
}

type t = {
  interval_s : float;
  mutable attached : attached option;
  mutable phase_source : (unit -> (string * float) list) option;
  mutable rev_windows : window list;
  mutable closed : int;
  mutable last_t : float;
  mutable finalized : bool;
  prev_phases : (string, float) Hashtbl.t;
  prev : scalars;
}

let create ?(interval_s = 10.) () =
  if interval_s <= 0. || not (Float.is_finite interval_s) then
    invalid_arg "Telemetry.Sampler.create: interval must be positive and finite";
  {
    interval_s;
    attached = None;
    phase_source = None;
    rev_windows = [];
    closed = 0;
    last_t = 0.;
    finalized = false;
    prev_phases = Hashtbl.create 8;
    prev =
      {
        p_hits = 0;
        p_misses = 0;
        p_commits = 0;
        p_ext = 0;
        p_app = 0;
        p_inst = 0;
        p_wt = 0;
        p_read_sum = 0.;
        p_read_count = 0;
        p_write_sum = 0.;
        p_write_count = 0;
      };
  }

let interval_s t = t.interval_s

let set_phase_source t source = t.phase_source <- Some source

(* The source reports cumulative per-phase sums; windows carry the
   increments, sparse like [deltas]. *)
let phase_deltas t =
  match t.phase_source with
  | None -> []
  | Some source ->
    List.filter_map
      (fun (name, value) ->
        let prev = Option.value (Hashtbl.find_opt t.prev_phases name) ~default:0. in
        Hashtbl.replace t.prev_phases name value;
        if value <> prev then Some (name, value -. prev) else None)
      (source ())

(* Sort every registry's counters into one namespace by prefixed name.  A
   name already resolved keeps its previous value; a new one starts from
   zero, so its first delta is its whole value. *)
let resolve registries (before : namespace) =
  let entries =
    Array.to_list registries
    |> List.concat_map (fun (prefix, registry) ->
           List.map
             (fun c -> (prefix ^ Stats.Counter.name c, c))
             (Stats.Counter.Registry.counters registry))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> Array.of_list
  in
  let prev = Hashtbl.create (Array.length before.names) in
  Array.iteri (fun i name -> Hashtbl.replace prev name before.prev.(i)) before.names;
  {
    sizes = Array.map (fun (_, registry) -> Stats.Counter.Registry.size registry) registries;
    names = Array.map fst entries;
    cells = Array.map snd entries;
    prev = Array.map (fun (name, _) -> Option.value (Hashtbl.find_opt prev name) ~default:0) entries;
  }

let grown a =
  let sizes = a.namespace.sizes in
  let rec from i =
    i < Array.length sizes
    && (Stats.Counter.Registry.size (snd a.registries.(i)) <> sizes.(i) || from (i + 1))
  in
  from 0

(* The cumulative merged counters, sorted by name, and the ones that moved
   since the previous sample with their increments. *)
let counter_sample a =
  if grown a then a.namespace <- resolve a.registries a.namespace;
  let ns = a.namespace in
  let counters = ref [] and deltas = ref [] in
  for i = Array.length ns.names - 1 downto 0 do
    let name = ns.names.(i) and value = Stats.Counter.value ns.cells.(i) in
    counters := (name, value) :: !counters;
    if value <> ns.prev.(i) then deltas := (name, value - ns.prev.(i)) :: !deltas;
    ns.prev.(i) <- value
  done;
  (!counters, !deltas)

let entity_deltas a =
  List.filter_map
    (fun (label, axis) ->
      match Breakdown.sample axis with [] -> None | moved -> Some (label, moved))
    a.axes

let in_flight_msgs (inst : Leases.Sim.instruments) =
  let net = inst.i_net in
  Netsim.Net.attempts net - Netsim.Net.deliveries net - Netsim.Net.dropped_loss net
  - Netsim.Net.dropped_partition net - Netsim.Net.dropped_down net

let skews a =
  let inst = a.inst in
  let engine_now = Engine.now inst.i_engine in
  let skew clock = Time.Span.to_sec (Time.diff (Clock.now clock) engine_now) in
  ("server", skew inst.i_server_clock)
  :: List.init (Array.length inst.i_client_clocks) (fun i ->
         (a.client_labels.(i), skew inst.i_client_clocks.(i)))

let take_sample t a =
  let inst = a.inst in
  let t_end = Time.to_sec (Engine.now inst.i_engine) in
  let counters, deltas = counter_sample a in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 inst.i_clients in
  let hits = sum Client.hits and misses = sum Client.misses in
  let ext = Server.messages_handled inst.i_server Leases.Messages.Extension in
  let app = Server.messages_handled inst.i_server Leases.Messages.Approval in
  let ins = Server.messages_handled inst.i_server Leases.Messages.Installed in
  let wt = Server.messages_handled inst.i_server Leases.Messages.Write_transfer in
  let commits = Server.commits inst.i_server in
  let read_sum = Stats.Histogram.sum inst.i_read_latency in
  let read_count = Stats.Histogram.count inst.i_read_latency in
  let write_sum = Stats.Histogram.sum inst.i_write_latency in
  let write_count = Stats.Histogram.count inst.i_write_latency in
  let snap = Server.snapshot inst.i_server in
  let p = t.prev in
  let window =
    {
      w_index = t.closed;
      t_start = t.last_t;
      t_end;
      counters;
      deltas;
      reads = hits + misses - p.p_hits - p.p_misses;
      hits = hits - p.p_hits;
      misses = misses - p.p_misses;
      commits = commits - p.p_commits;
      extension_msgs = ext - p.p_ext;
      approval_msgs = app - p.p_app;
      installed_msgs = ins - p.p_inst;
      write_transfer_msgs = wt - p.p_wt;
      read_delay_sum = read_sum -. p.p_read_sum;
      read_delay_count = read_count - p.p_read_count;
      write_delay_sum = write_sum -. p.p_write_sum;
      write_delay_count = write_count - p.p_write_count;
      lease_files = snap.Server.lease_files;
      lease_records = snap.Server.lease_records;
      lease_records_live = snap.Server.lease_records_live;
      pending_writes = snap.Server.pending_writes;
      queued_writes = snap.Server.queued_writes;
      client_inflight = sum Client.inflight_rpcs;
      client_queued_ops = sum Client.queued_ops;
      in_flight_msgs = in_flight_msgs inst;
      server_up = snap.Server.up;
      server_recovering = snap.Server.recovering;
      skews = skews a;
      by_entity = entity_deltas a;
      write_phase_sums = phase_deltas t;
    }
  in
  p.p_hits <- hits;
  p.p_misses <- misses;
  p.p_commits <- commits;
  p.p_ext <- ext;
  p.p_app <- app;
  p.p_inst <- ins;
  p.p_wt <- wt;
  p.p_read_sum <- read_sum;
  p.p_read_count <- read_count;
  p.p_write_sum <- write_sum;
  p.p_write_count <- write_count;
  t.rev_windows <- window :: t.rev_windows;
  t.closed <- t.closed + 1;
  t.last_t <- t_end

let attach t (inst : Leases.Sim.instruments) =
  if Option.is_some t.attached then
    invalid_arg "Telemetry.Sampler.attach: sampler already attached";
  let breakdown = Breakdown.create () in
  Server.set_breakdown inst.i_server (Some breakdown);
  let registries =
    Array.append
      [| ("server/", Server.counters inst.i_server) |]
      (Array.mapi (fun i c -> (Printf.sprintf "client/%d/" i, Client.counters c)) inst.i_clients)
  in
  let a =
    {
      inst;
      registries;
      namespace = resolve registries unresolved;
      client_labels = Array.init (Array.length inst.i_client_clocks) (Printf.sprintf "client/%d");
      axes = Breakdown.axes breakdown;
    }
  in
  t.attached <- Some a;
  let engine = inst.i_engine in
  let rec arm k =
    let boundary = Time.of_sec (float_of_int k *. t.interval_s) in
    if Time.(boundary > Engine.now engine) then
      ignore
        (Engine.schedule_at engine boundary (fun () ->
             (let p = Engine.profiler engine in
              if Profile.Recorder.enabled p then
                Profile.Recorder.mark p Profile.Center.Telemetry_sample);
             take_sample t a;
             arm (k + 1)))
    else arm (k + 1)
  in
  arm 1

let finalize t =
  match t.attached with
  | None -> ()
  | Some a ->
    if not t.finalized then begin
      t.finalized <- true;
      let now = Time.to_sec (Engine.now a.inst.i_engine) in
      if now > t.last_t then take_sample t a
    end

let windows t = List.rev t.rev_windows

let max_abs_skew w =
  List.fold_left (fun acc (_, s) -> Float.max acc (Float.abs s)) 0. w.skews

let consistency_msgs w = w.extension_msgs + w.approval_msgs + w.installed_msgs

let duration_s w = w.t_end -. w.t_start

let consistency_rate w =
  let d = duration_s w in
  if d <= 0. then 0. else float_of_int (consistency_msgs w) /. d

let series t =
  let mk label f =
    let s = Stats.Series.create ~label in
    List.iter (fun w -> Stats.Series.add s ~x:w.t_end ~y:(f w)) (windows t);
    s
  in
  [
    mk "consistency msgs/s" consistency_rate;
    mk "live lease records" (fun w -> float_of_int w.lease_records_live);
    mk "pending+queued writes" (fun w -> float_of_int (w.pending_writes + w.queued_writes));
    mk "in-flight msgs" (fun w -> float_of_int w.in_flight_msgs);
    mk "max |clock skew| (s)" max_abs_skew;
  ]
