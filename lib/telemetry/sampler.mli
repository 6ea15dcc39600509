(** Periodic telemetry sampler driven by the simulation clock.

    A sampler attaches to a running cluster through
    {!Leases.Sim.setup.on_instruments} and snapshots it at every multiple
    of the sampling interval: cumulative counter registries (server and
    per-client, merged into one sorted namespace), lease-table occupancy,
    pending/queued writes, client RPC queues, in-flight network messages,
    and every host clock's skew against engine time.  Each snapshot closes
    a {e window} carrying both the cumulative values and the deltas since
    the previous snapshot.

    Window semantics: boundaries sit at [k * interval] of {e engine} time.
    The engine runs same-instant callbacks in scheduling order and protocol
    events are always scheduled before the boundary callback fires, so a
    window covers the half-open interval (t_start, t_end] by scheduling
    order — an operation completing exactly at a boundary lands in the
    window that boundary closes.  [Engine.run ~until] stops exactly on the
    horizon, so {!finalize} closes one trailing partial window only when
    the horizon is not itself a boundary.

    Sampling is pull-only: the sampler reads accessors ({!Leases.Server.snapshot},
    counter registries, clock readings) and never mutates protocol state,
    so an attached sampler cannot perturb the schedule beyond its own
    boundary callbacks (which run no protocol code).

    A sample reads ints.  {!attach} resolves the merged counter namespace
    once, into arrays of sorted names, counter cells and previous values,
    and resolves it again only when a registry has grown; it also builds
    the skew labels once.  The per-entity deltas come from
    {!Leases.Breakdown.sample}, which costs the keys that moved. *)

type window = {
  w_index : int;
  t_start : float;  (** window start, engine seconds *)
  t_end : float;  (** window end (the sample instant), engine seconds *)
  counters : (string * int) list;
      (** cumulative merged counter dump at [t_end]: server registry under
          ["server/"], client [i]'s under ["client/i/"]; sorted by name *)
  deltas : (string * int) list;
      (** counters that moved this window, with their increments; sparse
          and sorted (a sub-sequence of [counters]) *)
  reads : int;  (** client read completions this window (hits + misses) *)
  hits : int;
  misses : int;
  commits : int;  (** server write commits this window *)
  extension_msgs : int;  (** Extension-category messages this window *)
  approval_msgs : int;
  installed_msgs : int;
  write_transfer_msgs : int;
  read_delay_sum : float;  (** summed read latency (s) this window *)
  read_delay_count : int;
  write_delay_sum : float;
  write_delay_count : int;
  lease_files : int;  (** gauge at [t_end]: files with lease records *)
  lease_records : int;
  lease_records_live : int;
  pending_writes : int;
  queued_writes : int;
  client_inflight : int;  (** RPCs on the wire, summed over clients *)
  client_queued_ops : int;
  in_flight_msgs : int;  (** network attempts not yet delivered or dropped *)
  server_up : bool;
  server_recovering : bool;
  skews : (string * float) list;
      (** per-host clock reading minus engine time, seconds; keys
          ["server"], ["client/0"], ... *)
  by_entity : (string * (int * int) list) list;
      (** per-entity hot-counter deltas this window: axis label (see
          {!Leases.Breakdown.axes}) to sorted (entity id, increment)
          pairs; sparse — axes and entities that did not move are
          omitted *)
  write_phase_sums : (string * float) list;
      (** per-phase write-delay sums (seconds) accumulated this window by
          the critical-path analyzer, in {!Trace.Critical_path.phases}
          order; sparse — phases that did not move are omitted, and the
          list is empty when no phase source is installed (see
          {!set_phase_source}) *)
}

type t

val create : ?interval_s:float -> unit -> t
(** A detached sampler.  [interval_s] defaults to 10 s; it must be
    positive and finite. *)

val interval_s : t -> float

val set_phase_source : t -> (unit -> (string * float) list) -> unit
(** Install a cumulative per-phase write-delay source (typically
    {!Trace.Critical_path.phase_sums} partially applied to a live
    analyzer); each window then carries the per-phase increments in
    [write_phase_sums].  The source is polled at window boundaries only. *)

val attach : t -> Leases.Sim.instruments -> unit
(** Hook the sampler to a cluster: installs a {!Leases.Breakdown.t} on the
    server and schedules the first boundary callback.  Pass
    [{ setup with on_instruments = Sampler.attach sampler }] to
    {!Leases.Sim.run}.  A sampler attaches to exactly one run; reattaching
    raises [Invalid_argument]. *)

val finalize : t -> unit
(** Close the trailing partial window at the current engine instant, if any
    simulated time has passed since the last boundary.  Call after
    {!Leases.Sim.run} returns.  Idempotent; a no-op when never attached. *)

val windows : t -> window list
(** Closed windows in time order. *)

val duration_s : window -> float
val consistency_msgs : window -> int
(** [extension_msgs + approval_msgs + installed_msgs] — the paper's
    consistency-message count for the window. *)

val consistency_rate : window -> float
(** {!consistency_msgs} per second of window; 0 for an empty window. *)

val max_abs_skew : window -> float

val series : t -> Stats.Series.t list
(** The headline gauges as labelled time series (x = window end):
    consistency message rate, live lease records, pending+queued writes,
    in-flight messages, max absolute clock skew. *)
