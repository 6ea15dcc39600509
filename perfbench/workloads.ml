(* The benchmark's workloads: what each one runs, and at which size.  Why
   each one exists is recorded in BENCHMARK.json and README.md.

   Every workload is open-loop in simulated time: its seeded generator fixes
   the arrivals before the run starts, whatever the simulated servers do.
   The [Sim] and [Split] workloads use [Leases.Config.default] (a 10 s
   term), which is what [simulate] and [figures] run. *)

type gen = Poisson | Shared_heavy

type shape =
  | Sim of { gen : gen; clients : int; duration_s : float }
      (** [Leases.Sim.run] on a [V_trace] generator *)
  | Split of { clients : int; duration_s : float; shards : int }
      (** [Shard.Deploy.run_split] on the Poisson V trace *)
  | Campaign of { schedules : int }  (** [Fault_campaign.Harness.run] *)
  | Sweep_point of { clients : int; duration_s : float }
      (** [Experiments.Corebench.lease_throughput]: the old BENCH_core sweep
          point, kept so the 312 -> 223 bisect can run through the same
          child runner; not one of the benchmark's workloads *)

type t = {
  name : string;
  seed : int;  (** the generator seed when [--seed] is not given *)
  full : shape;
  smoke : shape;  (** about 1 % of [full], for the [runtest] smoke rule *)
}

let all =
  [
    {
      name = "v_lan_n100";
      seed = 11;
      full = Sim { gen = Poisson; clients = 100; duration_s = 2000. };
      smoke = Sim { gen = Poisson; clients = 10; duration_s = 200. };
    };
    {
      name = "v_lan_n10k";
      seed = 11;
      full = Sim { gen = Poisson; clients = 10_000; duration_s = 15. };
      smoke = Sim { gen = Poisson; clients = 100; duration_s = 15. };
    };
    {
      name = "shared_writes";
      seed = 29;
      full = Sim { gen = Shared_heavy; clients = 40; duration_s = 20_000. };
      smoke = Sim { gen = Shared_heavy; clients = 4; duration_s = 2_000. };
    };
    {
      name = "campaign";
      seed = 1;
      full = Campaign { schedules = 400 };
      smoke = Campaign { schedules = 4 };
    };
  ]

(* The multi-domain path, run by name and by the smoke test but not one of
   the benchmark's workloads: on two cores shared with other tenants, its
   second domain's speed is neither steady nor seen by the probe (see
   README.md). *)
let split =
  {
    name = "split_n10k_k8";
    seed = 11;
    full = Split { clients = 10_000; duration_s = 15.; shards = 8 };
    smoke = Split { clients = 100; duration_s = 15.; shards = 8 };
  }

let sweep_point =
  {
    name = "corebench_n10k";
    seed = 11;
    full = Sweep_point { clients = 10_000; duration_s = 10. };
    smoke = Sweep_point { clients = 100; duration_s = 10. };
  }

let find name = List.find_opt (fun w -> w.name = name) (split :: sweep_point :: all)

let split_domains () = min 2 (Domain.recommended_domain_count ())

let sim_setup clients =
  Experiments.Runner.lease_setup ~n_clients:clients ~term:(Analytic.Model.Finite 10.) ()

let split_setup ~clients ~shards =
  { Shard.Deploy.default_setup with Shard.Deploy.n_clients = clients; n_shards = shards }

(* --- inputs ------------------------------------------------------------ *)

type inputs =
  | Trace of Workload.Trace.t
  | Schedules of (Fault_campaign.Schedule.t * Workload.Trace.t) list
  | Generated_in_run  (** the sweep point builds its trace inside the timed call *)

let generate shape ~seed =
  let span = Simtime.Time.Span.of_sec in
  let seed64 = Int64.of_int seed in
  match shape with
  | Sim { gen = Poisson; clients; duration_s } | Split { clients; duration_s; _ } ->
    Trace
      (Experiments.V_trace.poisson ~seed:seed64 ~clients ~duration:(span duration_s) ())
        .Experiments.V_trace.trace
  | Sim { gen = Shared_heavy; clients; duration_s } ->
    Trace
      (Experiments.V_trace.shared_heavy ~seed:seed64 ~clients ~duration:(span duration_s) ())
        .Experiments.V_trace.trace
  | Campaign { schedules } ->
    Schedules
      (List.map
         (fun s -> (s, Fault_campaign.Schedule.trace s))
         (Fault_campaign.Gen.schedules ~seed ~n:schedules))
  | Sweep_point _ -> Generated_in_run

(* --- untraced run ------------------------------------------------------ *)

type outcome = {
  sim_s : float;  (** simulated seconds the run covered *)
  ops : int;  (** client operations issued *)
  dropped : int;  (** issued but never completed *)
  oracle_violations : int;
  safety : int;  (** campaign schedules with a safety finding *)
  attempted : int;  (** the units [failed] counts against *)
  failed : int;
  doc : Trace.Json.t option;  (** the simulated outputs the digest covers *)
  xcheck : Trace.Json.t;  (** what the traced run must reproduce exactly *)
  notes : (string * float) list;  (** workload-specific figures, printed only *)
}

let json_of_string s =
  match Trace.Json.parse s with Ok j -> j | Error e -> failwith ("unparsable metrics: " ^ e)

let of_metrics (m : Leases.Metrics.t) =
  let doc = json_of_string (Leases.Metrics.to_json m) in
  {
    sim_s = m.Leases.Metrics.sim_duration;
    ops = m.Leases.Metrics.ops_issued;
    dropped = m.Leases.Metrics.dropped_ops;
    oracle_violations = m.Leases.Metrics.oracle_violations;
    safety = 0;
    attempted = m.Leases.Metrics.ops_issued;
    failed = m.Leases.Metrics.dropped_ops + m.Leases.Metrics.oracle_violations;
    doc = Some doc;
    xcheck = doc;
    notes = [];
  }

(* The traced campaign reruns every schedule outside the harness, so it is
   checked per schedule on what both paths report. *)
let campaign_xcheck per_schedule =
  Trace.Json.Arr
    (List.map
       (fun (ops, dropped, commits) ->
         Trace.Json.Arr (List.map (fun n -> Trace.Json.Num (float_of_int n)) [ ops; dropped; commits ]))
       per_schedule)

(* A campaign's unit of work is a schedule: a degraded schedule (operations
   lost to an injected crash) is the expected outcome of its faults, a
   schedule with a safety finding is a failure. *)
let of_summary (s : Fault_campaign.Harness.summary) =
  let outcomes = List.map (fun r -> r.Fault_campaign.Harness.outcome) s.Fault_campaign.Harness.results in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  {
    sim_s =
      List.fold_left
        (fun acc o -> acc +. o.Fault_campaign.Runner.schedule.Fault_campaign.Schedule.duration_s)
        0. outcomes;
    ops = sum (fun o -> o.Fault_campaign.Runner.ops_issued);
    dropped = sum (fun o -> o.Fault_campaign.Runner.dropped_ops);
    oracle_violations = sum (fun o -> o.Fault_campaign.Runner.oracle_violations);
    safety = s.Fault_campaign.Harness.safety;
    attempted = s.Fault_campaign.Harness.schedules;
    failed = s.Fault_campaign.Harness.safety;
    doc = Some (Fault_campaign.Harness.to_json s);
    xcheck =
      campaign_xcheck
        (List.map
           (fun o ->
             ( o.Fault_campaign.Runner.ops_issued,
               o.Fault_campaign.Runner.dropped_ops,
               o.Fault_campaign.Runner.commits ))
           outcomes);
    notes =
      [
        ("campaign.clean", float_of_int s.Fault_campaign.Harness.clean);
        ("campaign.degraded", float_of_int s.Fault_campaign.Harness.degraded);
        ("campaign.safety", float_of_int s.Fault_campaign.Harness.safety);
      ];
  }

(* Runs the workload with nothing attached; [timer] brackets exactly the
   part [sim_s_per_wall_s] divides by.  Cluster construction is inside it:
   users pay it on every run. *)
let run shape inputs ~seed ~timer =
  match (shape, inputs) with
  | Sim { clients; _ }, Trace trace ->
    let t0 = timer () in
    let o = Leases.Sim.run (sim_setup clients) ~trace in
    (timer () -. t0, of_metrics o.Leases.Sim.metrics)
  | Split { clients; shards; _ }, Trace trace ->
    let t0 = timer () in
    let o =
      Shard.Deploy.run_split ~domains:(split_domains ()) (split_setup ~clients ~shards) ~trace
    in
    let wall = timer () -. t0 in
    (wall, of_metrics o.Shard.Deploy.sp_metrics)
  | Campaign { schedules }, _ ->
    let t0 = timer () in
    let s = Fault_campaign.Harness.run ~shrink:true ~seed ~schedules () in
    (timer () -. t0, of_summary s)
  | Sweep_point { clients; duration_s }, _ ->
    let r =
      Experiments.Corebench.lease_throughput ~timer ~n_clients:clients
        ~duration:(Simtime.Time.Span.of_sec duration_s)
    in
    ( r.Experiments.Corebench.wall_seconds,
      {
        sim_s = r.Experiments.Corebench.sim_seconds;
        ops = 0;
        dropped = 0;
        oracle_violations = 0;
        safety = 0;
        attempted = 1;
        failed = 0;
        doc = None;
        xcheck = Trace.Json.Null;
        notes = [];
      } )
  | (Sim _ | Split _), (Schedules _ | Generated_in_run) -> invalid_arg "Workloads.run: no trace"
