(* Decode a JSONL protocol trace, reconstruct lease lifecycles and write
   waits, and replay the invariant checker.  Exits non-zero when the
   checker finds violations so CI can gate on a traced run. *)

open Cmdliner

let read_events path =
  let ic = if path = "-" then stdin else open_in path in
  let events = ref [] in
  let bad = ref 0 in
  let line_no = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       if String.trim line <> "" then
         match Trace.Codec.decode line with
         | Ok ev -> events := ev :: !events
         | Error why ->
           incr bad;
           if !bad <= 5 then Printf.eprintf "tracedump: line %d: %s\n" !line_no why
     done
   with End_of_file -> ());
  if path <> "-" then close_in ic;
  if !bad > 0 then Printf.eprintf "tracedump: %d undecodable line(s) skipped\n" !bad;
  List.rev !events

let kind_counts events =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (ev : Trace.Event.t) ->
      let name = Trace.Event.kind_name ev.ev in
      Hashtbl.replace tbl name (1 + Option.value (Hashtbl.find_opt tbl name) ~default:0))
    events;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* --stats: per-kind count plus first/last timestamp, no lifecycle or
   checker replay — cheap enough for very large traces. *)
let rec print_stats events =
  let tbl : (string, int * float * float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (ev : Trace.Event.t) ->
      let name = Trace.Event.kind_name ev.ev in
      let entry =
        match Hashtbl.find_opt tbl name with
        | None -> (1, ev.at, ev.at)
        | Some (n, first, last) -> (n + 1, Float.min first ev.at, Float.max last ev.at)
      in
      Hashtbl.replace tbl name entry)
    events;
  let rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  Printf.printf "== event stats (%d events, %d kinds) ==\n" (List.length events)
    (List.length rows);
  Printf.printf "%-20s %10s %14s %14s\n" "kind" "count" "first" "last";
  List.iter
    (fun (name, (n, first, last)) ->
      Printf.printf "%-20s %10d %14.6f %14.6f\n" name n first last)
    rows;
  print_message_stats events

(* Per-message-kind traffic: sends, deliveries, and drops split by cause.
   [sent <> delivered + dropped] only for messages still in flight when the
   trace ended (or from a crashed sender, which drops with no send). *)
and print_message_stats events =
  let tbl : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  let row kind =
    let name = Trace.Event.msg_kind_name kind in
    match Hashtbl.find_opt tbl name with
    | Some r -> r
    | None ->
      let r = Array.make 5 0 in
      Hashtbl.add tbl name r;
      r
  in
  let bump kind col = (row kind).(col) <- (row kind).(col) + 1 in
  List.iter
    (fun (ev : Trace.Event.t) ->
      match ev.ev with
      | Trace.Event.Net_send { kind; _ } -> bump kind 0
      | Trace.Event.Net_deliver { kind; _ } -> bump kind 1
      | Trace.Event.Net_drop { kind; cause; _ } ->
        bump kind
          (match cause with
          | Trace.Event.Loss -> 2
          | Trace.Event.Partition -> 3
          | Trace.Event.Down -> 4)
      | _ -> ())
    events;
  let rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  if rows <> [] then begin
    Printf.printf "\n== message stats (%d kinds) ==\n" (List.length rows);
    Printf.printf "%-18s %10s %10s %10s %10s %10s\n" "message" "sent" "delivered" "drop/loss"
      "drop/part" "drop/down";
    let totals = Array.make 5 0 in
    List.iter
      (fun (name, r) ->
        Array.iteri (fun i v -> totals.(i) <- totals.(i) + v) r;
        Printf.printf "%-18s %10d %10d %10d %10d %10d\n" name r.(0) r.(1) r.(2) r.(3) r.(4))
      rows;
    Printf.printf "%-18s %10d %10d %10d %10d %10d\n" "total" totals.(0) totals.(1) totals.(2)
      totals.(3) totals.(4)
  end

(* --stats --shards N: attribute each event to a shard — by file owner
   through the deterministic shard map when the event names a file, else
   by server host id (servers are hosts 0..N-1 under sharding) — and print
   the per-shard load, busiest first.  Client-host events with no file
   (crash/recover/clock on a client) stay unattributed. *)
let print_shard_stats events ~shards ~map_seed =
  let map = Shard.Shard_map.create ~seed:map_seed ~shards () in
  let by_file f = Some (Shard.Shard_map.owner map (Vstore.File_id.of_int f)) in
  let by_host h = if h >= 0 && h < shards then Some h else None in
  let totals = Array.make shards 0 in
  let grants = Array.make shards 0 in
  let commits = Array.make shards 0 in
  let net = Array.make shards 0 in
  let unattributed = ref 0 in
  List.iter
    (fun (ev : Trace.Event.t) ->
      let shard =
        match ev.ev with
        | Trace.Event.Lease_grant { file; _ }
        | Trace.Event.Lease_release { file; _ }
        | Trace.Event.Lease_expire { file; _ }
        | Trace.Event.Wait_begin { file; _ }
        | Trace.Event.Wait_expire { file; _ }
        | Trace.Event.Approval_request { file; _ }
        | Trace.Event.Approval_reply { file; _ }
        | Trace.Event.Commit { file; _ }
        | Trace.Event.Installed_cover { file; _ }
        | Trace.Event.Client_lease { file; _ }
        | Trace.Event.Cache_hit { file; _ }
        | Trace.Event.Cache_miss { file; _ }
        | Trace.Event.Cache_invalidate { file; _ } -> by_file file
        | Trace.Event.Net_send { src; dst; _ }
        | Trace.Event.Net_deliver { src; dst; _ }
        | Trace.Event.Net_drop { src; dst; _ } -> (
          match by_host src with Some s -> Some s | None -> by_host dst)
        | Trace.Event.Crash { host }
        | Trace.Event.Recover { host }
        | Trace.Event.Clock_drift { host; _ }
        | Trace.Event.Clock_step { host; _ } -> by_host host
        | Trace.Event.Heartbeat _ -> None
      in
      match shard with
      | None -> incr unattributed
      | Some s ->
        totals.(s) <- totals.(s) + 1;
        (match ev.ev with
        | Trace.Event.Lease_grant _ -> grants.(s) <- grants.(s) + 1
        | Trace.Event.Commit _ -> commits.(s) <- commits.(s) + 1
        | Trace.Event.Net_send _ | Trace.Event.Net_deliver _ | Trace.Event.Net_drop _ ->
          net.(s) <- net.(s) + 1
        | _ -> ()))
    events;
  let attributed = Array.fold_left ( + ) 0 totals in
  Printf.printf "\n== per-shard breakdown (%d shards, %d attributed, %d unattributed) ==\n" shards
    attributed !unattributed;
  Printf.printf "%-6s %10s %8s %10s %10s %10s\n" "shard" "events" "share" "grants" "commits" "net";
  List.init shards (fun s -> s)
  |> List.sort (fun a b -> compare (totals.(b), a) (totals.(a), b))
  |> List.iter (fun s ->
         let share =
           if attributed = 0 then 0. else 100. *. float_of_int totals.(s) /. float_of_int attributed
         in
         Printf.printf "%-6d %10d %7.1f%% %10d %10d %10d\n" s totals.(s) share grants.(s)
           commits.(s) net.(s))

let end_cause_name : Trace.Lifecycle.end_cause -> string = function
  | Active -> "active"
  | Released Approved -> "released/approved"
  | Released Writer_self -> "released/writer-self"
  | Expired -> "expired"
  | Commit_sweep -> "commit-sweep"
  | Regrant -> "regrant"
  | Server_crash -> "server-crash"

let opt_time = function None -> "never" | Some at -> Printf.sprintf "%.6f" at

let print_leases life limit =
  let leases = life.Trace.Lifecycle.leases in
  let total = List.length leases in
  Printf.printf "== lease lifecycles (%d) ==\n" total;
  Printf.printf "%-6s %-6s %12s %12s %8s %12s  %s\n" "file" "holder" "granted" "ended" "renewals"
    "expiry" "end";
  let shown = if limit > 0 && total > limit then limit else total in
  List.iteri
    (fun i (l : Trace.Lifecycle.lease) ->
      if i < shown then
        Printf.printf "%-6d %-6d %12.6f %12.6f %8d %12s  %s\n" l.file l.holder l.granted_at
          (Trace.Lifecycle.lease_end life l) l.renewals (opt_time l.last_expiry)
          (end_cause_name l.end_cause))
    leases;
  if shown < total then Printf.printf "... %d more (raise --limit to see them)\n" (total - shown)

let resolution_text = function
  | None -> "unresolved"
  | Some (Trace.Lifecycle.Res_approved at) -> Printf.sprintf "approved@%.6f" at
  | Some (Trace.Lifecycle.Res_expired at) -> Printf.sprintf "expired@%.6f" at

let print_waits life =
  let waits = life.Trace.Lifecycle.waits in
  Printf.printf "\n== write waits (%d) ==\n" (List.length waits);
  List.iter
    (fun (w : Trace.Lifecycle.wait) ->
      let waited =
        match (w.waited_s, w.committed_at) with
        | Some s, _ -> Printf.sprintf "waited %.6f s" s
        | None, Some at -> Printf.sprintf "committed@%.6f" at
        | None, None -> "never committed"
      in
      Printf.printf "write %d file %d by client %d @%.6f: %s%s\n" w.write w.w_file w.writer
        w.began_at waited
        (if w.by_expiry then " (by expiry)" else "");
      List.iter
        (fun (b : Trace.Lifecycle.blocker) ->
          Printf.printf "    blocked by client %d: %s\n" b.b_holder (resolution_text b.resolution))
        w.blockers)
    waits

let main path server limit no_lifecycle stats shards map_seed =
  try
    if shards < 1 then failwith "--shards must be at least 1";
    let events = read_events path in
    if events = [] then failwith (Printf.sprintf "no events decoded from %s" path);
    if stats then begin
      print_stats events;
      if shards > 1 then print_shard_stats events ~shards ~map_seed;
      `Ok ()
    end
    else begin
      Printf.printf "== events (%d) ==\n" (List.length events);
      List.iter (fun (k, n) -> Printf.printf "%-20s %d\n" k n) (kind_counts events);
      (* Lifecycle reconstruction assumes a single server; for sharded
         traces we go straight to the (multi-server) invariant checker. *)
      if shards > 1 then
        Printf.printf "\n(sharded trace: lifecycle tables skipped)\n"
      else begin
        let life = Trace.Lifecycle.build ~server events in
        if not no_lifecycle then begin
          Printf.printf "\n";
          print_leases life limit;
          print_waits life
        end
      end;
      Printf.printf "\n== invariants ==\n";
      let report =
        if shards > 1 then begin
          let map = Shard.Shard_map.create ~seed:map_seed ~shards () in
          Trace.Checker.check
            ~servers:(List.init shards Fun.id)
            ~owner:(fun f -> Shard.Shard_map.owner map (Vstore.File_id.of_int f))
            events
        end
        else Trace.Checker.check ~server events
      in
      Format.printf "%a@." Trace.Checker.pp_report report;
      if Trace.Checker.ok report then `Ok () else `Error (false, "invariant violations found")
    end
  with
  | Failure why | Sys_error why -> `Error (false, why)

let path =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"TRACE" ~doc:"JSONL trace written by leases-sim --trace ('-' for stdin).")

let server =
  Arg.(value & opt int 0 & info [ "server" ] ~docv:"HOST" ~doc:"Host id of the server (default 0).")

let limit =
  Arg.(value & opt int 25
       & info [ "limit" ] ~docv:"N" ~doc:"Lease-table rows to print; 0 means all.")

let no_lifecycle =
  Arg.(value & flag
       & info [ "check-only" ] ~doc:"Skip the lifecycle and wait tables; print counts and the \
                                     invariant verdict only.")

let stats =
  Arg.(value & flag
       & info [ "stats" ] ~doc:"Print only per-event-kind counts with first/last timestamps; \
                                skip lifecycle reconstruction and the invariant checker.")

let shards =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"N"
           ~doc:"Check a sharded trace (leases-sim --shards N): servers are hosts 0..N-1 and a \
                 server crash only sweeps the files its shard owns.  Skips the lifecycle \
                 tables, which assume a single server.")

let map_seed =
  Arg.(value & opt int64 1L
       & info [ "map-seed" ] ~docv:"SEED"
           ~doc:"Seed of the shard map; must match the --seed of the traced run (default 1).")

let cmd =
  let doc = "Summarise a protocol trace and verify the lease safety invariants." in
  Cmd.v (Cmd.info "leases-tracedump" ~doc)
    Term.(ret (const main $ path $ server $ limit $ no_lifecycle $ stats $ shards $ map_seed))

let () = exit (Cmd.eval cmd)
