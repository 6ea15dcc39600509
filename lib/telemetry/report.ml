module Json = Trace.Json

let schema = "leases-telemetry/1"

(* {2 JSON export} *)

let json_of_term = function
  | Analytic.Model.Finite t -> Json.Num t
  | Analytic.Model.Infinite -> Json.Str "infinite"

let json_of_params (p : Residual.params) =
  Json.Obj
    [
      ("n_clients", Json.Num (float_of_int p.Residual.n_clients));
      ("m_prop_s", Json.Num p.Residual.m_prop_s);
      ("m_proc_s", Json.Num p.Residual.m_proc_s);
      ("epsilon_s", Json.Num p.Residual.epsilon_s);
      ("term_s", json_of_term p.Residual.term);
      ("tolerance", Json.Num Residual.tolerance);
      ("warmup_s", Json.Num Residual.warmup_s);
    ]

let summary_to_json (s : Residual.summary) =
  Json.Obj
    [
      ("windows", Json.Num (float_of_int s.Residual.windows));
      ("flagged_windows", Json.Num (float_of_int s.Residual.flagged_windows));
      ("mean_measured_load", Json.Num s.Residual.mean_measured_load);
      ("mean_predicted_load", Json.Num s.Residual.mean_predicted_load);
      ("peak_measured_load", Json.Num s.Residual.peak_measured_load);
      ("worst_load_residual", Json.Num s.Residual.worst_load_residual);
      ("worst_window_t", Json.Num s.Residual.worst_window_t);
      ("steady_load_residual", Json.Num s.Residual.steady_load_residual);
    ]

let num_member name json =
  match Json.member name json with
  | Some (Json.Num n) -> Ok n
  | _ -> Error (Printf.sprintf "missing numeric field %S" name)

let ( let* ) = Result.bind

let summary_of_json json =
  let* windows = num_member "windows" json in
  let* flagged = num_member "flagged_windows" json in
  let* mean_m = num_member "mean_measured_load" json in
  let* mean_p = num_member "mean_predicted_load" json in
  let* peak = num_member "peak_measured_load" json in
  let* worst = num_member "worst_load_residual" json in
  let* worst_t = num_member "worst_window_t" json in
  let* steady = num_member "steady_load_residual" json in
  Ok
    {
      Residual.windows = int_of_float windows;
      flagged_windows = int_of_float flagged;
      mean_measured_load = mean_m;
      mean_predicted_load = mean_p;
      peak_measured_load = peak;
      worst_load_residual = worst;
      worst_window_t = worst_t;
      steady_load_residual = steady;
    }

let json_of_counts pairs =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Num (float_of_int v))) pairs)

let json_of_entity_deltas by_entity =
  Json.Obj
    (List.map
       (fun (label, pairs) ->
         ( label,
           Json.Obj
             (List.map (fun (key, v) -> (string_of_int key, Json.Num (float_of_int v))) pairs) ))
       by_entity)

let json_of_eval (e : Residual.eval) =
  let w = e.Residual.e_window in
  Json.Obj
    [
      ("index", Json.Num (float_of_int w.Sampler.w_index));
      ("t_start", Json.Num w.Sampler.t_start);
      ("t_end", Json.Num w.Sampler.t_end);
      ("reads", Json.Num (float_of_int w.Sampler.reads));
      ("hits", Json.Num (float_of_int w.Sampler.hits));
      ("misses", Json.Num (float_of_int w.Sampler.misses));
      ("commits", Json.Num (float_of_int w.Sampler.commits));
      ("extension_msgs", Json.Num (float_of_int w.Sampler.extension_msgs));
      ("approval_msgs", Json.Num (float_of_int w.Sampler.approval_msgs));
      ("installed_msgs", Json.Num (float_of_int w.Sampler.installed_msgs));
      ("write_transfer_msgs", Json.Num (float_of_int w.Sampler.write_transfer_msgs));
      ("r_rate", Json.Num e.Residual.r_rate);
      ("w_rate", Json.Num e.Residual.w_rate);
      ("sharing", Json.Num (float_of_int e.Residual.sharing));
      ("measured_load", Json.Num e.Residual.measured_load);
      ("predicted_load", Json.Num e.Residual.predicted_load);
      ("load_residual", Json.Num e.Residual.load_residual);
      ("measured_delay", Json.Num e.Residual.measured_delay);
      ("predicted_delay", Json.Num e.Residual.predicted_delay);
      ("delay_residual", Json.Num e.Residual.delay_residual);
      ("flagged", Json.Bool e.Residual.flagged);
      ("lease_files", Json.Num (float_of_int w.Sampler.lease_files));
      ("lease_records", Json.Num (float_of_int w.Sampler.lease_records));
      (* the format keeps the old resident and live columns, which the
         sweep before each snapshot made one count *)
      ("lease_records_live", Json.Num (float_of_int w.Sampler.lease_records));
      ("pending_writes", Json.Num (float_of_int w.Sampler.pending_writes));
      ("queued_writes", Json.Num (float_of_int w.Sampler.queued_writes));
      ("client_inflight", Json.Num (float_of_int w.Sampler.client_inflight));
      ("client_queued_ops", Json.Num (float_of_int w.Sampler.client_queued_ops));
      ("in_flight_msgs", Json.Num (float_of_int w.Sampler.in_flight_msgs));
      ("server_up", Json.Bool w.Sampler.server_up);
      ("server_recovering", Json.Bool w.Sampler.server_recovering);
      ("max_abs_skew", Json.Num (Sampler.max_abs_skew w));
      ("skews", Json.Obj (List.map (fun (k, s) -> (k, Json.Num s)) (Sampler.skews w)));
      ("deltas", json_of_counts (Sampler.deltas w));
      ("by_entity", json_of_entity_deltas (Sampler.by_entity w));
      ( "write_phase_sums",
        Json.Obj (List.map (fun (name, s) -> (name, Json.Num s)) w.Sampler.write_phase_sums) );
    ]

(* Both exports print each window's detail, so a sampler that recorded
   none is refused rather than written with empty skews and counters. *)
let evaluate_detailed ~caller params sampler =
  if not (Sampler.detailed sampler) then
    invalid_arg
      (Printf.sprintf
         "Telemetry.Report.%s: the sampler records no detail (create it with ~detail:true)" caller);
  Residual.evaluate params sampler

let to_json ~params sampler =
  let evals = evaluate_detailed ~caller:"to_json" params sampler in
  let summary = Residual.summarize evals in
  (* Cumulative by-entity totals are reconstructible by summing the
     per-window deltas; only the counter registry is repeated in full. *)
  let final_counters =
    match List.rev (Sampler.windows sampler) with
    | [] -> []
    | last :: _ -> Sampler.counters last
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("params", json_of_params params);
      ("summary", summary_to_json summary);
      ("windows", Json.Arr (List.map json_of_eval evals));
      ("final_counters", json_of_counts final_counters);
    ]

let to_json_string ~params sampler = Json.to_string (to_json ~params sampler) ^ "\n"

(* {2 CSV export} *)

let csv_columns =
  [
    "index"; "t_start"; "t_end"; "reads"; "hits"; "misses"; "commits"; "extension_msgs";
    "approval_msgs"; "installed_msgs"; "write_transfer_msgs"; "r_rate"; "w_rate"; "sharing";
    "measured_load"; "predicted_load"; "load_residual"; "measured_delay"; "predicted_delay";
    "delay_residual"; "flagged"; "lease_files"; "lease_records"; "lease_records_live";
    "pending_writes"; "queued_writes"; "client_inflight"; "client_queued_ops"; "in_flight_msgs";
    "server_up"; "server_recovering"; "max_abs_skew";
  ]

let csv_row (e : Residual.eval) =
  let w = e.Residual.e_window in
  let i v = string_of_int v in
  let f v = Printf.sprintf "%.9g" v in
  let b v = if v then "1" else "0" in
  [
    i w.Sampler.w_index; f w.Sampler.t_start; f w.Sampler.t_end; i w.Sampler.reads;
    i w.Sampler.hits; i w.Sampler.misses; i w.Sampler.commits; i w.Sampler.extension_msgs;
    i w.Sampler.approval_msgs; i w.Sampler.installed_msgs; i w.Sampler.write_transfer_msgs;
    f e.Residual.r_rate; f e.Residual.w_rate; i e.Residual.sharing; f e.Residual.measured_load;
    f e.Residual.predicted_load; f e.Residual.load_residual; f e.Residual.measured_delay;
    f e.Residual.predicted_delay; f e.Residual.delay_residual; b e.Residual.flagged;
    i w.Sampler.lease_files; i w.Sampler.lease_records; i w.Sampler.lease_records;
    i w.Sampler.pending_writes; i w.Sampler.queued_writes; i w.Sampler.client_inflight;
    i w.Sampler.client_queued_ops; i w.Sampler.in_flight_msgs; b w.Sampler.server_up;
    b w.Sampler.server_recovering; f (Sampler.max_abs_skew w);
  ]

let to_csv_string ~params sampler =
  let evals = evaluate_detailed ~caller:"to_csv_string" params sampler in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.concat "," csv_columns);
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf (String.concat "," (csv_row e));
      Buffer.add_char buf '\n')
    evals;
  Buffer.contents buf

(* {2 Reading a JSON report back (leases-telemetry)} *)

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

let bool_member name json =
  match Json.member name json with
  | Some (Json.Bool b) -> Ok b
  | _ -> Error (Printf.sprintf "missing boolean field %S" name)

let view_window_of_json json =
  let* t_end = num_member "t_end" json in
  let* measured = num_member "measured_load" json in
  let* predicted = num_member "predicted_load" json in
  let* residual = num_member "load_residual" json in
  let* mdelay = num_member "measured_delay" json in
  let* pdelay = num_member "predicted_delay" json in
  let* reads = num_member "reads" json in
  let* commits = num_member "commits" json in
  let* live = num_member "lease_records_live" json in
  let* pending = num_member "pending_writes" json in
  let* queued = num_member "queued_writes" json in
  let* inflight = num_member "in_flight_msgs" json in
  let* skew = num_member "max_abs_skew" json in
  let* up = bool_member "server_up" json in
  let* flagged = bool_member "flagged" json in
  Ok
    {
      v_t_end = t_end;
      v_measured_load = measured;
      v_predicted_load = predicted;
      v_load_residual = residual;
      v_measured_delay = mdelay;
      v_predicted_delay = pdelay;
      v_reads = int_of_float reads;
      v_commits = int_of_float commits;
      v_lease_records_live = int_of_float live;
      v_pending_writes = int_of_float pending;
      v_queued_writes = int_of_float queued;
      v_in_flight_msgs = int_of_float inflight;
      v_max_abs_skew = skew;
      v_server_up = up;
      v_flagged = flagged;
    }

let rec collect_windows = function
  | [] -> Ok []
  | w :: rest ->
    let* v = view_window_of_json w in
    let* vs = collect_windows rest in
    Ok (v :: vs)

let of_json json =
  (match Json.member "schema" json with
  | Some (Json.Str s) when s = schema -> Ok ()
  | Some (Json.Str s) -> Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
  | _ -> Error "not a telemetry report: missing schema field")
  |> fun check ->
  let* () = check in
  let* summary_json =
    match Json.member "summary" json with
    | Some s -> Ok s
    | None -> Error "missing summary object"
  in
  let* summary = summary_of_json summary_json in
  let* windows =
    match Json.member "windows" json with
    | Some (Json.Arr ws) -> collect_windows ws
    | _ -> Error "missing windows array"
  in
  Ok { v_summary = summary; v_windows = windows }

let of_string s =
  let* json = Json.parse s in
  of_json json

(* {2 Terminal rendering} *)

let spark_chars = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                     "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  match values with
  | [] -> ""
  | _ ->
    let lo = List.fold_left Float.min Float.infinity values in
    let hi = List.fold_left Float.max Float.neg_infinity values in
    let span = hi -. lo in
    let buf = Buffer.create (3 * List.length values) in
    List.iter
      (fun v ->
        let level =
          if span <= 0. then 0
          else
            Int.min
              (Array.length spark_chars - 1)
              (int_of_float ((v -. lo) /. span *. float_of_int (Array.length spark_chars)))
        in
        Buffer.add_string buf spark_chars.(level))
      values;
    Buffer.contents buf

let pp_view ppf view =
  let s = view.v_summary in
  Format.fprintf ppf "windows: %d  flagged: %d@." s.Residual.windows s.Residual.flagged_windows;
  Format.fprintf ppf "consistency load: measured %.3f msg/s  predicted %.3f msg/s@."
    s.Residual.mean_measured_load s.Residual.mean_predicted_load;
  Format.fprintf ppf "steady residual: %+.1f%%  worst window: %+.1f%% at t=%.0fs@."
    (100. *. s.Residual.steady_load_residual)
    (100. *. s.Residual.worst_load_residual)
    s.Residual.worst_window_t;
  let ws = view.v_windows in
  if ws <> [] then begin
    let line label f = Format.fprintf ppf "%-18s %s@." label (sparkline (List.map f ws)) in
    line "measured load" (fun w -> w.v_measured_load);
    line "predicted load" (fun w -> w.v_predicted_load);
    line "|residual|" (fun w -> Float.abs w.v_load_residual);
    line "live leases" (fun w -> float_of_int w.v_lease_records_live);
    line "pending writes" (fun w -> float_of_int (w.v_pending_writes + w.v_queued_writes));
    line "in-flight msgs" (fun w -> float_of_int w.v_in_flight_msgs);
    line "max |skew|" (fun w -> w.v_max_abs_skew);
    let flagged = List.filter (fun w -> w.v_flagged) ws in
    if flagged <> [] then begin
      Format.fprintf ppf "@.flagged windows:@.";
      let rows =
        List.map
          (fun w ->
            [
              Printf.sprintf "%.0f" w.v_t_end;
              Printf.sprintf "%.3f" w.v_measured_load;
              Printf.sprintf "%.3f" w.v_predicted_load;
              Printf.sprintf "%+.1f%%" (100. *. w.v_load_residual);
              (if w.v_server_up then "up" else "down");
            ])
          flagged
      in
      Format.fprintf ppf "%s@."
        (Stats.Table.render
           ~header:[ "t_end"; "measured"; "predicted"; "residual"; "server" ]
           ~rows)
    end
  end
