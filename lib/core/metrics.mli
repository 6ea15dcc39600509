(** The result record of one simulation run — everything the figures and
    claims need, in one place. *)

type t = {
  sim_duration : float;  (** seconds of virtual time simulated *)
  ops_issued : int;
  reads_completed : int;
  writes_completed : int;
  temp_ops : int;  (** temporary-file operations handled locally *)
  dropped_ops : int;  (** issued but never completed (crashes, drain cutoff) *)
  cache_hits : int;
  cache_misses : int;
  hit_ratio : float;
  (* --- server load --- *)
  msgs_extension : int;
  msgs_approval : int;
  msgs_installed : int;
  msgs_write_transfer : int;
  consistency_msgs : int;
  server_total_msgs : int;
  consistency_msg_rate : float;  (** per virtual second *)
  callbacks_sent : int;
  commits : int;
  wal_io : int;
  (* --- latency --- *)
  read_latency : Stats.Histogram.t;  (** seconds; cache hits contribute 0 *)
  write_latency : Stats.Histogram.t;
  write_wait : Stats.Histogram.t;  (** server-side commit delay *)
  mean_read_delay : float;
  mean_write_delay_added : float;
  (** mean write latency beyond one plain RPC — the consistency share *)
  mean_op_delay : float;
  (** per-operation consistency delay, weighted like the model's formula 2 *)
  (* --- client behaviour --- *)
  retransmissions : int;
  renewals_sent : int;
  approvals_answered : int;
  (* --- network --- *)
  net_sent : int;
  net_dropped_loss : int;
  net_dropped_partition : int;
  net_dropped_down : int;
  (* --- consistency --- *)
  oracle_reads : int;
  oracle_violations : int;
  staleness : Stats.Histogram.t;
}

val with_messages : Messages.tally array -> t -> t
(** [m] with its message counts those of the servers' tallies, summed: the
    four [msgs_*] by category, [consistency_msgs] the extension, approval
    and installed ones (the paper's consistency load) and
    [server_total_msgs] all four.  Every run reports its servers' messages
    through it. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable summary. *)

val pp_brief : Format.formatter -> t -> unit
(** One line: ops, hit ratio, consistency rate, delays, violations. *)

val to_json : t -> string
(** Machine-readable dump (schema ["leases-metrics/1"]): every scalar field
    verbatim; histograms summarised as count/mean/p50/p90/p99/max. *)
