(** The [leases-profile/1] report: deterministic JSON in and out, a
    hotspot table, and flamegraph exports.

    Centers appear in {!Center.all} order with every center present, so
    two runs with the same seed and the same injected timer/words hooks
    render byte-identical strings. *)

type center_row = {
  center : string;  (** {!Center.name} slug *)
  hits : int;
  wall_s : float;
  wall_pct : float;  (** share of [wall_s_total] *)
  minor_words : float;
  major_words : float;
}

type sample = {
  t : float;
  queue_depth : int;
  cancel_ratio : float;
  events : int;
  events_per_sim_s : float;
}

type t = {
  interval_s : float;
  events_total : int;
  measured_wall_s : float;
  wall_s_total : float;  (** sum of center walls; = measured up to rounding *)
  minor_words_total : float;
  major_words_total : float;
  centers : center_row list;
  samples : sample list;
}

val schema : string
(** ["leases-profile/1"]. *)

val of_recorder : Recorder.t -> t

val to_json_string : t -> string
(** Canonical rendering, newline-terminated. *)

val of_json_string : string -> (t, string) result

val hotspot_table : ?top:int -> t -> string
(** Top-[top] (default 10) centers by wall time, plus an engine-health
    footer when samples exist. *)

val to_speedscope : ?name:string -> t -> string
(** {{:https://www.speedscope.app}speedscope} sampled profile: one frame
    per non-zero center, weighted by wall seconds. *)

val to_chrome : t -> string
(** chrome://tracing / Perfetto: per-center spans laid end to end plus
    engine-health counter tracks over sim time. *)
