(* Seeded fault-campaign fuzzer: derive N random fault schedules from one
   seed, run each through the simulator with the register oracle and the
   trace invariant checker armed, classify the outcomes, and shrink any
   safety violation to a minimal reproducer.  Exits non-zero when any
   schedule finds a safety violation so CI can gate on a campaign run. *)

open Cmdliner

let main seed schedules shrink json =
  if schedules < 0 then
    `Error
      (false, Printf.sprintf "--schedules %d: the number of schedules must be at least 0" schedules)
  else begin
    let summary = Fault_campaign.Harness.run ~shrink ~seed ~schedules () in
    if json then print_string (Trace.Json.to_string (Fault_campaign.Harness.to_json summary) ^ "\n")
    else Format.printf "%a" Fault_campaign.Harness.pp summary;
    if Fault_campaign.Harness.has_safety summary then
      `Error
        (false, Printf.sprintf "%d schedule(s) violated safety" summary.Fault_campaign.Harness.safety)
    else `Ok ()
  end

let seed =
  Arg.(value & opt int 1
       & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Campaign seed; the whole run is a pure function \
                                                 of it.")

let schedules =
  Arg.(value & opt int 25
       & info [ "schedules" ] ~docv:"N"
           ~doc:"Number of fault schedules to generate and run, at least 0.")

let shrink =
  Arg.(value & flag
       & info [ "shrink" ] ~doc:"Minimise each safety violation to a small reproducer before \
                                 reporting it.")

let json =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the full campaign report as JSON on stdout.")

let cmd =
  let doc = "Run a seeded randomized fault campaign against the lease protocol." in
  Cmd.v (Cmd.info "leases-campaign" ~doc)
    Term.(ret (const main $ seed $ schedules $ shrink $ json))

let () = exit (Cmd.eval cmd)
