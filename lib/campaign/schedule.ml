type t = {
  index : int;
  sim_seed : int64;
  workload : Experiments.V_trace.kind;
  n_clients : int;
  n_shards : int;
  duration_s : float;
  term_s : float;
  loss : float;
  faults : Leases.Sim.fault list;
}

let trace s =
  Experiments.V_trace.generate s.workload ~seed:s.sim_seed ~clients:s.n_clients
    ~duration:(Simtime.Time.Span.of_sec s.duration_s)

let setup ?(tracer = Trace.Sink.null) s =
  let base =
    Experiments.Runner.lease_setup ~n_clients:s.n_clients
      ~term:(Analytic.Model.Finite s.term_s) ()
  in
  { base with Leases.Sim.seed = s.sim_seed; loss = s.loss; faults = s.faults; tracer }

let deploy_setup ?(tracer = Trace.Sink.null) s =
  let base =
    Experiments.Runner.lease_setup ~n_clients:s.n_clients
      ~term:(Analytic.Model.Finite s.term_s) ()
  in
  {
    Shard.Deploy.default_setup with
    Shard.Deploy.seed = s.sim_seed;
    n_clients = s.n_clients;
    n_shards = s.n_shards;
    config = base.Leases.Sim.config;
    loss = s.loss;
    faults = s.faults;
    tracer;
  }

let num v = Printf.sprintf "%.12g" v

let to_command s =
  let faults =
    List.map (fun f -> Printf.sprintf " --fault '%s'" (Leases.Sim.fault_to_spec f)) s.faults
  in
  let shards = if s.n_shards > 1 then Printf.sprintf " --shards %d" s.n_shards else "" in
  Printf.sprintf "leases-sim -p leases -t %s -n %d -d %s -s %Ld -w %s --loss %s%s%s" (num s.term_s)
    s.n_clients (num s.duration_s) s.sim_seed
    (Experiments.V_trace.kind_name s.workload)
    (num s.loss) shards (String.concat "" faults)

let to_json s =
  Trace.Json.Obj
    [
      ("index", Trace.Json.Num (float_of_int s.index));
      ("sim_seed", Trace.Json.Str (Int64.to_string s.sim_seed));
      ("workload", Trace.Json.Str (Experiments.V_trace.kind_name s.workload));
      ("clients", Trace.Json.Num (float_of_int s.n_clients));
      ("shards", Trace.Json.Num (float_of_int s.n_shards));
      ("duration_s", Trace.Json.Num s.duration_s);
      ("term_s", Trace.Json.Num s.term_s);
      ("loss", Trace.Json.Num s.loss);
      ( "faults",
        Trace.Json.Arr
          (List.map (fun f -> Trace.Json.Str (Leases.Sim.fault_to_spec f)) s.faults) );
      ("command", Trace.Json.Str (to_command s));
    ]

let equal a b = to_command a = to_command b && a.index = b.index
