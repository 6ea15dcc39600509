open Simtime
module Server = Leases.Server
module Client = Leases.Client
module Breakdown = Leases.Breakdown

(* A one-server window's detail.  The name and label arrays are shared by
   every window that resolved them, and [before] is the previous window's
   [values]; nothing writes into an array once a window holds it. *)
type detail = {
  names : string array;  (* the merged counter namespace, sorted *)
  values : int array;  (* cumulative counters at [t_end], aligned with [names] *)
  before : int array;  (* the counters at the previous boundary, aligned with [names] *)
  skew_labels : string array;  (* "server", "client/0", ... *)
  skew_s : float array;  (* aligned with [skew_labels] *)
  axis_labels : string array;  (* the breakdown's axes, in [Breakdown.axes] order *)
  entities : int array array;
      (* per axis, the moved keys' flat (key, increment) pairs; [||] when
         the axis did not move *)
}

let no_detail =
  {
    names = [||];
    values = [||];
    before = [||];
    skew_labels = [||];
    skew_s = [||];
    axis_labels = [||];
    entities = [||];
  }

type window = {
  w_index : int;
  t_start : float;
  t_end : float;
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
  pending_writes : int;
  queued_writes : int;
  client_inflight : int;
  client_queued_ops : int;
  in_flight_msgs : int;
  server_up : bool;
  server_recovering : bool;
  write_phase_sums : (string * float) list;
  detail : detail;
}

(* One server's cumulative read side: hits, misses and the delay sums.
   Under the K-server rule the world's completion listeners bump it; under
   the one-server rule each sample refills it from the clients' counters
   and the op driver's tally. *)
type reads = {
  mutable hits : int;
  mutable misses : int;
  mutable read_sum : float;
  mutable read_count : int;
  mutable write_sum : float;
  mutable write_count : int;
}

let no_reads () =
  { hits = 0; misses = 0; read_sum = 0.; read_count = 0; write_sum = 0.; write_count = 0 }

(* One server's cumulative counts at the previous boundary; closing a
   window overwrites them. *)
type prev = {
  p_reads : reads;
  mutable commits : int;
  mutable ext : int;
  mutable app : int;
  mutable inst : int;
  mutable wt : int;
}

(* The merged counter namespace -- the server's registry under "server/",
   client i's counters under "client/<i>/" -- resolved into parallel
   arrays sorted by name, with each counter's value at the previous
   sample.  [prev] is the last window's [values], replaced, never written,
   at each sample. *)
type namespace = {
  names : string array;
  cells : Stats.Counter.t array;
  mutable prev : int array;
}

(* What the one-server rule resolves once for a detailed sampler, so a
   sample reads ints. *)
type resolved = {
  namespace : namespace;
  skew_labels : string array;  (* "server", "client/0", ... *)
  axis_labels : string array;
  axes : Breakdown.axis array;  (* aligned with [axis_labels] *)
}

type one_server = {
  resolved : resolved option;  (* [None] without [~detail] *)
  side : reads;  (* refilled at each sample *)
}

type rule = One_server of one_server | Per_server of reads array

type attached = {
  world : Leases.Sim.world;
  tally : Leases.Cluster.tally;
  rule : rule;
  prev : prev array;  (* per server *)
  prev_phases : float array array;  (* per server, by phase *)
  rev_windows : window list array;  (* per server, newest first *)
}

type t = {
  interval_s : float;
  latency : Trace.Critical_path.t option;
  detailed : bool;
  mutable attached : attached option;
  mutable closed : int;
  mutable last_t : float;
  mutable finalized : bool;
}

(* Boundaries land on the engine's microsecond grid, so a shorter
   interval would close one window per tick whatever its width. *)
let tick_s = Time.to_sec (Time.of_us 1)

let create ?(interval_s = 10.) ?latency ?(detail = false) () =
  if not (Float.is_finite interval_s) then
    invalid_arg "Telemetry.Sampler.create: interval must be finite";
  if interval_s < tick_s then
    invalid_arg
      (Printf.sprintf "Telemetry.Sampler.create: interval %g s is below the engine's 1 us tick"
         interval_s);
  {
    interval_s;
    latency;
    detailed = detail;
    attached = None;
    closed = 0;
    last_t = 0.;
    finalized = false;
  }

let detailed t = t.detailed

(* Sort every list's counters into one namespace by prefixed name, each
   starting from zero, so its first delta is its whole value.  Lease
   servers and clients create every counter at creation, so the namespace
   is resolved once, at attach. *)
let resolve lists =
  let entries =
    Array.to_list lists
    |> List.concat_map (fun (prefix, counters) ->
           List.map (fun c -> (prefix ^ Stats.Counter.name c, c)) counters)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> Array.of_list
  in
  {
    names = Array.map fst entries;
    cells = Array.map snd entries;
    prev = Array.make (Array.length entries) 0;
  }

(* The window detail at this boundary: the merged counters read into a
   fresh array, the previous boundary's array kept beside it, every
   clock's skew, and each axis's moved keys. *)
let detail (o : resolved) (w : Leases.Sim.world) =
  let ns = o.namespace in
  let values = Array.map Stats.Counter.value ns.cells in
  let before = ns.prev in
  ns.prev <- values;
  let engine_now = Engine.now w.fabric.Leases.Cluster.engine in
  let skew clock = Time.Span.to_sec (Time.diff (Clock.now clock) engine_now) in
  let skew_s = Array.make (Array.length o.skew_labels) 0. in
  skew_s.(0) <- skew (Server.clock w.servers.(0));
  Array.iteri (fun i c -> skew_s.(i + 1) <- skew (Client.clock c)) w.clients;
  {
    names = ns.names;
    values;
    before;
    skew_labels = o.skew_labels;
    skew_s;
    axis_labels = o.axis_labels;
    entities = Array.map Breakdown.sample o.axes;
  }

let in_flight_msgs net =
  Netsim.Net.attempts net - Netsim.Net.deliveries net - Netsim.Net.dropped_loss net
  - Netsim.Net.dropped_partition net - Netsim.Net.dropped_down net

(* The analyzer's sums are cumulative, in phase order; a window carries
   the phases that moved since the previous boundary, with their
   increments. *)
let phase_deltas t a s =
  match t.latency with
  | None -> []
  | Some analyzer ->
    let prev = a.prev_phases.(s) in
    let server = Host.Host_id.to_int (Server.host a.world.servers.(s)) in
    let rec moved i = function
      | [] -> []
      | (name, value) :: rest ->
        let before = prev.(i) in
        prev.(i) <- value;
        if value <> before then (name, value -. before) :: moved (i + 1) rest
        else moved (i + 1) rest
    in
    moved 0 (Trace.Critical_path.phase_sums_for analyzer ~server)

(* Close server [s]'s window at [t_end] from its read side [r] and its own
   counters, against the previous boundary's counts, which it then
   overwrites.  The one-server rule passes the fields a K-server window
   leaves empty. *)
let close_window t a s ~t_end (r : reads) ~client_inflight ~client_queued_ops ~in_flight_msgs
    ~detail =
  let server = a.world.servers.(s) and p = a.prev.(s) in
  let pr = p.p_reads in
  let handled kind = Server.messages_handled server kind in
  let commits = Server.commits server in
  let ext = handled Leases.Messages.Extension and app = handled Leases.Messages.Approval in
  let inst = handled Leases.Messages.Installed in
  let wt = handled Leases.Messages.Write_transfer in
  let snap = Server.snapshot server in
  let window =
    {
      w_index = t.closed;
      t_start = t.last_t;
      t_end;
      reads = r.hits + r.misses - pr.hits - pr.misses;
      hits = r.hits - pr.hits;
      misses = r.misses - pr.misses;
      commits = commits - p.commits;
      extension_msgs = ext - p.ext;
      approval_msgs = app - p.app;
      installed_msgs = inst - p.inst;
      write_transfer_msgs = wt - p.wt;
      read_delay_sum = r.read_sum -. pr.read_sum;
      read_delay_count = r.read_count - pr.read_count;
      write_delay_sum = r.write_sum -. pr.write_sum;
      write_delay_count = r.write_count - pr.write_count;
      lease_files = snap.Server.lease_files;
      lease_records = snap.Server.lease_records;
      pending_writes = snap.Server.pending_writes;
      queued_writes = snap.Server.queued_writes;
      client_inflight;
      client_queued_ops;
      in_flight_msgs;
      server_up = snap.Server.up;
      server_recovering = snap.Server.recovering;
      write_phase_sums = phase_deltas t a s;
      detail;
    }
  in
  pr.hits <- r.hits;
  pr.misses <- r.misses;
  pr.read_sum <- r.read_sum;
  pr.read_count <- r.read_count;
  pr.write_sum <- r.write_sum;
  pr.write_count <- r.write_count;
  p.commits <- commits;
  p.ext <- ext;
  p.app <- app;
  p.inst <- inst;
  p.wt <- wt;
  a.rev_windows.(s) <- window :: a.rev_windows.(s)

let take_sample t a ~t_end =
  let w = a.world in
  (match a.rule with
  | One_server o ->
    let clients f = Array.fold_left (fun acc c -> acc + f c) 0 w.clients in
    let r = o.side and tally = a.tally in
    r.hits <- clients Client.hits;
    r.misses <- clients Client.misses;
    r.read_sum <- Stats.Histogram.sum tally.Leases.Cluster.read_latency;
    r.read_count <- Stats.Histogram.count tally.Leases.Cluster.read_latency;
    r.write_sum <- Stats.Histogram.sum tally.Leases.Cluster.write_latency;
    r.write_count <- Stats.Histogram.count tally.Leases.Cluster.write_latency;
    let detail = match o.resolved with Some d -> detail d w | None -> no_detail in
    close_window t a 0 ~t_end r ~client_inflight:(clients Client.inflight_rpcs)
      ~client_queued_ops:(clients Client.queued_ops)
      ~in_flight_msgs:(in_flight_msgs w.fabric.Leases.Cluster.net)
      ~detail
  | Per_server live ->
    Array.iteri
      (fun s r ->
        close_window t a s ~t_end r ~client_inflight:0 ~client_queued_ops:0 ~in_flight_msgs:0
          ~detail:no_detail)
      live);
  t.closed <- t.closed + 1;
  t.last_t <- t_end

(* A detailed sampler installs the server's breakdown and resolves the
   counter namespace and the labels once. *)
let resolve_detail (w : Leases.Sim.world) =
  let breakdown = Breakdown.create () in
  Server.set_breakdown w.servers.(0) (Some breakdown);
  let lists =
    Array.append
      [| ("server/", Stats.Counter.Registry.counters (Server.counters w.servers.(0))) |]
      (Array.mapi (fun i c -> (Printf.sprintf "client/%d/" i, Client.counters c)) w.clients)
  in
  let axes = Array.of_list (Breakdown.axes breakdown) in
  {
    namespace = resolve lists;
    skew_labels =
      Array.append [| "server" |]
        (Array.init (Array.length w.clients) (Printf.sprintf "client/%d"));
    axis_labels = Array.map fst axes;
    axes = Array.map snd axes;
  }

(* Credit each completion to the server owning its file. *)
let per_server (w : Leases.Sim.world) =
  let live = Array.map (fun _ -> no_reads ()) w.servers in
  w.on_read <-
    (fun file r ->
      let c = live.(w.route file) in
      if r.Client.r_from_cache then c.hits <- c.hits + 1 else c.misses <- c.misses + 1;
      c.read_sum <- c.read_sum +. Time.Span.to_sec r.Client.r_latency;
      c.read_count <- c.read_count + 1);
  w.on_write <-
    (fun file r ->
      let c = live.(w.route file) in
      c.write_sum <- c.write_sum +. Time.Span.to_sec r.Client.w_latency;
      c.write_count <- c.write_count + 1);
  live

let attach t (w : Leases.Sim.world) tally =
  if Option.is_some t.attached then
    invalid_arg "Telemetry.Sampler.attach: sampler already attached";
  let n = Array.length w.servers in
  let rule =
    if n > 1 then Per_server (per_server w)
    else
      One_server
        {
          resolved = (if t.detailed then Some (resolve_detail w) else None);
          side = no_reads ();
        }
  in
  let a =
    {
      world = w;
      tally;
      rule;
      prev =
        Array.init n (fun _ ->
            { p_reads = no_reads (); commits = 0; ext = 0; app = 0; inst = 0; wt = 0 });
      prev_phases =
        Array.init n (fun _ -> Array.make (List.length Trace.Critical_path.phases) 0.);
      rev_windows = Array.make n [];
    }
  in
  t.attached <- Some a;
  let engine = w.fabric.Leases.Cluster.engine in
  let rec arm k =
    let nominal = float_of_int k *. t.interval_s in
    let boundary = Time.of_sec nominal in
    if Time.(boundary > Engine.now engine) then
      ignore
        (Engine.schedule_at engine boundary (fun () ->
             (let p = Engine.profiler engine in
              if Profile.Recorder.enabled p then
                Profile.Recorder.mark p Profile.Center.Telemetry_sample);
             let t_end =
               match rule with One_server _ -> Time.to_sec boundary | Per_server _ -> nominal
             in
             take_sample t a ~t_end;
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
      let now = Time.to_sec (Engine.now a.world.fabric.Leases.Cluster.engine) in
      if now > t.last_t then take_sample t a ~t_end:now
    end

let server_windows t = match t.attached with None -> [||] | Some a -> a.rev_windows

let servers t = Array.length (server_windows t)

let windows ?server t =
  let per_server = server_windows t in
  match server with
  | None -> List.concat_map List.rev (Array.to_list per_server)
  | Some s when s >= 0 && s < Array.length per_server -> List.rev per_server.(s)
  | Some s -> invalid_arg (Printf.sprintf "Telemetry.Sampler.windows: no server %d" s)

(* The list views of a window's detail, built on demand. *)

let counters w =
  let d = w.detail in
  List.init (Array.length d.names) (fun i -> (d.names.(i), d.values.(i)))

let deltas w =
  let d = w.detail in
  let rec moved i acc =
    if i < 0 then acc
    else
      let delta = d.values.(i) - d.before.(i) in
      moved (i - 1) (if delta <> 0 then (d.names.(i), delta) :: acc else acc)
  in
  moved (Array.length d.names - 1) []

let skews w =
  let d = w.detail in
  List.init (Array.length d.skew_labels) (fun i -> (d.skew_labels.(i), d.skew_s.(i)))

let by_entity w =
  let d = w.detail in
  let pairs flat =
    List.init (Array.length flat / 2) (fun j -> (flat.(2 * j), flat.((2 * j) + 1)))
  in
  let rec axes i acc =
    if i < 0 then acc
    else
      let flat = d.entities.(i) in
      axes (i - 1) (if Array.length flat = 0 then acc else (d.axis_labels.(i), pairs flat) :: acc)
  in
  axes (Array.length d.axis_labels - 1) []

let max_abs_skew w = Array.fold_left (fun acc s -> Float.max acc (Float.abs s)) 0. w.detail.skew_s

let consistency_msgs w = w.extension_msgs + w.approval_msgs + w.installed_msgs

let duration_s w = w.t_end -. w.t_start
