(* Render a saved critical-path latency report (leases-sim --latency-out),
   or re-run the analyzer over a raw JSONL trace, and optionally gate on
   phase-partition conservation: every completed operation's attributed
   phases must sum to its client-observed latency. *)

open Cmdliner

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let conserve_tolerance = 1e-9

let gate ~quiet ~checked ~max_err =
  if checked = 0 then
    `Error (false, "conservation gate: no completed operations to check — empty or untraced run?")
  else if max_err <= conserve_tolerance then begin
    if not quiet then
      Format.printf "conservation gate: %d ops, max |error| %.3g s within %.0e@." checked max_err
        conserve_tolerance;
    `Ok ()
  end
  else
    `Error
      ( false,
        Printf.sprintf
          "conservation gate: max |phase sum - latency| = %.3g s over %d ops exceeds %.0e — \
           attributed phases do not partition the measured latency"
          max_err checked conserve_tolerance )

(* --- JSON-report mode --------------------------------------------------- *)

let num_mem name obj =
  match Trace.Json.member name obj with Some (Trace.Json.Num v) -> Some v | _ -> None

let str_mem name obj =
  match Trace.Json.member name obj with Some (Trace.Json.Str s) -> Some s | _ -> None

let int_mem name obj = Option.map int_of_float (num_mem name obj)

let print_summary_line ppf label obj =
  match
    (num_mem "p50" obj, num_mem "p90" obj, num_mem "p99" obj, num_mem "p999" obj, num_mem "sum" obj)
  with
  | Some p50, Some p90, Some p99, Some p999, Some sum ->
    Format.fprintf ppf "  %-12s p50=%.6g p90=%.6g p99=%.6g p99.9=%.6g sum=%.6g@." label p50 p90
      p99 p999 sum
  | _ -> ()

let print_json_report doc k =
  (match Trace.Json.member "ops" doc with
  | Some (Trace.Json.Obj kinds) ->
    List.iter
      (fun (kind, stats) ->
        let count = Option.value ~default:0 (int_mem "count" stats) in
        let incomplete = Option.value ~default:0 (int_mem "incomplete" stats) in
        let abandoned = Option.value ~default:0 (int_mem "abandoned" stats) in
        if count > 0 || incomplete > 0 || abandoned > 0 then begin
          Format.printf "%s ops: %d completed" kind count;
          if incomplete > 0 then Format.printf ", %d incomplete" incomplete;
          if abandoned > 0 then Format.printf ", %d abandoned" abandoned;
          Format.printf "@.";
          (match Trace.Json.member "latency" stats with
          | Some lat when count > 0 -> print_summary_line Format.std_formatter "latency" lat
          | _ -> ());
          match Trace.Json.member "phases" stats with
          | Some (Trace.Json.Obj phs) when count > 0 ->
            List.iter
              (fun (name, s) ->
                match num_mem "sum" s with
                | Some sum when sum > 0. -> print_summary_line Format.std_formatter name s
                | _ -> ())
              phs
          | _ -> ()
        end)
      kinds
  | _ -> ());
  (match Trace.Json.member "conservation" doc with
  | Some c -> (
    match (int_mem "checked" c, num_mem "max_abs_error" c) with
    | Some checked, Some err ->
      Format.printf "conservation: %d ops checked, max |error| = %.3g s@." checked err
    | _ -> ())
  | None -> ());
  (match Trace.Json.member "per_server" doc with
  | Some (Trace.Json.Arr ([ _; _ ] as rows)) | Some (Trace.Json.Arr (_ :: _ :: _ as rows)) ->
    List.iter
      (fun row ->
        match (int_mem "server" row, int_mem "ops" row, int_mem "writes" row) with
        | Some s, Some ops, Some writes ->
          Format.printf "server %d: %d ops, %d writes@." s ops writes
        | _ -> ())
      rows
  | _ -> ());
  match Trace.Json.member "worst_writes" doc with
  | Some (Trace.Json.Arr (_ :: _ as worst)) ->
    Format.printf "worst writes:@.";
    List.iteri
      (fun i w ->
        if i < k then
          match str_mem "explain" w with
          | Some e -> Format.printf "  %s@." e
          | None -> ())
      worst
  | _ -> ()

let run_json text gate_conserve quiet k =
  match Trace.Json.parse text with
  | Error why -> `Error (false, Printf.sprintf "not a JSON report: %s" why)
  | Ok doc -> (
    (match str_mem "format" doc with
    | Some "leases-latency/1" -> ()
    | Some other -> Format.eprintf "warning: unexpected format tag %S@." other
    | None -> Format.eprintf "warning: missing format tag@.");
    if not quiet then print_json_report doc k;
    if not gate_conserve then `Ok ()
    else
      match Trace.Json.member "conservation" doc with
      | Some c -> (
        match (int_mem "checked" c, num_mem "max_abs_error" c) with
        | Some checked, Some max_err -> gate ~quiet ~checked ~max_err
        | _ -> `Error (false, "conservation member is malformed"))
      | None -> `Error (false, "report has no conservation member"))

(* --- raw-trace mode ----------------------------------------------------- *)

let run_trace path gate_conserve quiet k =
  (* the analyzer keeps only the writes the report shows *)
  let analyzer = Trace.Critical_path.create ~worst:(Int.max 0 k) () in
  let ic = open_in path in
  let bad = Trace.Sink.replay ic (Trace.Critical_path.sink analyzer) in
  close_in ic;
  if bad > 0 then Format.eprintf "warning: %d undecodable lines skipped@." bad;
  let report = Trace.Critical_path.report ~k analyzer in
  if not quiet then Format.printf "%a@." Trace.Critical_path.pp_report report;
  if not gate_conserve then `Ok ()
  else
    gate ~quiet ~checked:report.Trace.Critical_path.r_checked
      ~max_err:report.Trace.Critical_path.r_max_err

let main file from_trace gate_conserve quiet k =
  if from_trace then
    match run_trace file gate_conserve quiet k with
    | r -> r
    | exception Sys_error why -> `Error (false, why)
  else
    match run_json (read_file file) gate_conserve quiet k with
    | r -> r
    | exception Sys_error why -> `Error (false, why)

let file =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"FILE"
           ~doc:"Latency JSON report written by leases-sim --latency-out, or (with --trace) a \
                 raw JSONL event trace to analyze.")

let from_trace =
  Arg.(value & flag
       & info [ "trace" ] ~doc:"Treat $(i,FILE) as a raw JSONL event trace and re-run the \
                                critical-path analyzer over it.")

let gate_conserve =
  Arg.(value & flag
       & info [ "gate-conserve" ]
           ~doc:"Exit non-zero unless every completed operation's attributed phases sum to its \
                 client-observed latency within 1e-9 s (and at least one operation was checked).")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the rendered report.")

let k =
  Arg.(value & opt int 5
       & info [ "k" ] ~docv:"N" ~doc:"Show at most $(docv) worst-write exemplars.")

let cmd =
  let doc = "Render a lease-simulation critical-path latency report." in
  Cmd.v (Cmd.info "leases-latency" ~doc)
    Term.(ret (const main $ file $ from_trace $ gate_conserve $ quiet $ k))

let () = exit (Cmd.eval cmd)
