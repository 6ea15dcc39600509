(** Telemetry export (JSON, CSV) and terminal rendering.

    The JSON report is self-describing (schema ["leases-telemetry/1"]):
    residual parameters, the {!Residual.summary}, one object per window
    (residual fields, gauges, sparse counter and per-entity deltas, the
    per-host skew map) and the final cumulative counters.  All maps
    are emitted in sorted key order and numbers through {!Trace.Json}, so
    two identical seeded runs produce byte-identical reports.

    The CSV export flattens the per-window scalars (no counter dumps or
    per-entity maps) for spreadsheet use, one row per window.

    Both exports read each window's detail, so {!output_json},
    {!to_json_string} and {!to_csv_string} raise [Invalid_argument] on a
    sampler created without [~detail:true]. *)

val schema : string

val output_json : out_channel -> params:Residual.params -> Sampler.t -> unit
(** Writes the JSON report, with a trailing newline, piece by piece: the
    head (schema, parameters and summary), then each window, then the final
    counters.  Only one window's text is held at a time, so the report is
    never built whole in memory. *)

val to_json_string : params:Residual.params -> Sampler.t -> string
(** The bytes {!output_json} writes. *)

val csv_columns : string list
val to_csv_string : params:Residual.params -> Sampler.t -> string

val summary_to_json : Residual.summary -> Trace.Json.t
(** The summary alone — what a campaign report embeds per schedule. *)

val summary_of_json : Trace.Json.t -> (Residual.summary, string) result

(** {2 Reading a report back}

    [leases-telemetry] renders a saved JSON report without re-running the
    simulation; the view carries only what the renderer and the residual
    gate need. *)

type view_window = {
  v_t_end : float;
  v_measured_load : float;
  v_predicted_load : float;
  v_load_residual : float;
  v_measured_delay : float;
  v_predicted_delay : float;
  v_reads : int;
  v_commits : int;
  v_lease_records_live : int;
  v_pending_writes : int;
  v_queued_writes : int;
  v_in_flight_msgs : int;
  v_max_abs_skew : float;
  v_server_up : bool;
  v_flagged : bool;
}

type view = { v_summary : Residual.summary; v_windows : view_window list }

val of_json : Trace.Json.t -> (view, string) result
val of_string : string -> (view, string) result

val sparkline : float list -> string
(** Eight-level block-character sparkline; empty string for no points, all
    low blocks for a constant series. *)

val pp_view : Format.formatter -> view -> unit
(** Summary lines, one sparkline per headline gauge, and a table of flagged
    windows when any. *)
