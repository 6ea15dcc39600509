(** Canonical V-system workloads for the experiments.

    Both generators target the Table 2 rates (R = 0.864 reads/s,
    W = 0.040 writes/s per client, server-visible) over a file population
    shaped like the paper's: installed files take just under half the
    reads, temporary files take the bulk of raw writes but are handled
    locally. *)

type t = {
  trace : Workload.Trace.t;
  fileset : Workload.Fileset.t;
}

val poisson : ?seed:int64 -> ?clients:int -> duration:Simtime.Time.Span.t -> unit -> t
(** The analytic model's arrival assumption. *)

val bursty : ?seed:int64 -> ?clients:int -> duration:Simtime.Time.Span.t -> unit -> t
(** The measured trace's shape: compile-session bursts with Pareto think
    times — the paper's "Trace" curve, with its sharper knee. *)

val shared_heavy : ?seed:int64 -> ?clients:int -> duration:Simtime.Time.Span.t -> unit -> t
(** A write-sharing-heavy Poisson variant (most reads and writes go to a
    small shared set) — the contention regime where the consistency
    protocols actually diverge; used by the baseline comparison. *)

val read_rate : float
val write_rate : float

val fileset : ?clients:int -> unit -> Workload.Fileset.t
(** The file population alone (20 installed, 10 shared, 30 private and 10
    temporary files per client). *)

(** {2 The workload kinds}

    The one table of the kinds [leases-sim -w], [leases-tracegen -w] and
    the fault campaign's schedules name. *)

type kind = Poisson | Bursty | Shared_heavy

val kind_name : kind -> string
(** ["poisson"], ["bursty"] or ["shared-heavy"]: the [-w] spelling. *)

val kind_of_name : string -> kind
(** The kind {!kind_name} spells so; raises [Failure] naming the known
    kinds for any other string. *)

val generate :
  kind -> seed:int64 -> clients:int -> duration:Simtime.Time.Span.t -> Workload.Trace.t
(** The trace of {!poisson}, {!bursty} or {!shared_heavy}. *)
