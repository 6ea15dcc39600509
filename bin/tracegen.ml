(* Emit a synthetic workload trace in the text format of Trace_io. *)

open Cmdliner

let main workload clients duration seed out =
  try
    let trace =
      Experiments.V_trace.generate
        (Experiments.V_trace.kind_of_name workload)
        ~seed ~clients ~duration:(Simtime.Time.Span.of_sec duration)
    in
    let text = Workload.Trace_io.print trace in
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Format.eprintf "%a@." Workload.Trace.pp_summary (Workload.Trace.summarize trace)
    | None -> print_string text);
    `Ok ()
  with Failure why | Sys_error why -> `Error (false, why)

let workload =
  Arg.(value & opt string "poisson"
       & info [ "w"; "workload" ] ~docv:"KIND" ~doc:"poisson, bursty or shared-heavy.")

let clients = Arg.(value & opt int 1 & info [ "n"; "clients" ] ~docv:"N" ~doc:"Client count.")

let duration =
  Arg.(value & opt float 600. & info [ "d"; "duration" ] ~docv:"SEC" ~doc:"Trace length in virtual seconds.")

let seed = Arg.(value & opt int64 1L & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let out =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file (default stdout).")

let cmd =
  let doc = "Generate synthetic V-system file-access traces." in
  Cmd.v (Cmd.info "leases-tracegen" ~doc)
    Term.(ret (const main $ workload $ clients $ duration $ seed $ out))

let () = exit (Cmd.eval cmd)
