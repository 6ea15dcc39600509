(** One randomly derived campaign case: a workload mix plus a fault
    schedule, everything needed to run — and to reproduce from the
    [leases-sim] command line. *)

type t = {
  index : int;  (** position in the campaign, for reporting *)
  sim_seed : int64;  (** drives both the workload generator and the network *)
  workload : Experiments.V_trace.kind;
  n_clients : int;
  n_shards : int;
      (** servers the namespace is split across ({!deploy_setup}); 1 =
          one server, the world {!setup} builds *)
  duration_s : float;  (** virtual seconds of workload *)
  term_s : float;
  loss : float;  (** per-delivery drop probability *)
  faults : Leases.Sim.fault list;
}

val trace : t -> Workload.Trace.t
(** The workload trace this schedule drives — identical to what
    [leases-sim] builds from {!to_command}. *)

val setup : ?tracer:Trace.Sink.t -> t -> Leases.Sim.setup
(** The one-server [Leases.Sim.run] setup (V LAN message times, the
    schedule's seed, loss and faults), for callers that run a one-shard
    schedule on [Sim.run] themselves.  Only meaningful when
    [n_shards = 1]. *)

val deploy_setup : ?tracer:Trace.Sink.t -> t -> Shard.Deploy.setup
(** The deployment setup the campaign runs the schedule on: same seed,
    config, loss and faults as {!setup}, with the namespace split across
    [n_shards] servers. *)

val to_command : t -> string
(** A [leases-sim] invocation reproducing this schedule exactly:
    [-p leases -t TERM -n N -d DUR -s SEED -w KIND --loss P [--shards N]
    --fault ...]. *)

val to_json : t -> Trace.Json.t
(** Stable field order; faults in {!Leases.Sim.fault_to_spec} form. *)

val equal : t -> t -> bool
