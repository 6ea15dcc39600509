(* Decode a JSONL protocol trace line by line, reconstruct lease lifecycles
   and write waits, and replay the invariant checker.  Exits non-zero when
   the checker finds violations so CI can gate on a traced run. *)

open Cmdliner

let read path sink =
  let ic = if path = "-" then stdin else open_in path in
  let shown = ref 0 in
  let on_error line why =
    incr shown;
    if !shown <= 5 then Printf.eprintf "tracedump: line %d: %s\n" line why
  in
  let bad = Trace.Sink.replay ~on_error ic sink in
  if path <> "-" then close_in ic;
  if bad > 0 then Printf.eprintf "tracedump: %d undecodable line(s) skipped\n" bad

(* Per event kind: its count and first and last instants. *)
type kind_row = { mutable n : int; mutable first : float; mutable last : float }

let kinds_sink tbl =
  let push (e : Trace.Event.t) =
    let name = Trace.Event.kind_name e.ev in
    match Hashtbl.find_opt tbl name with
    | None -> Hashtbl.add tbl name { n = 1; first = e.at; last = e.at }
    | Some r ->
      r.n <- r.n + 1;
      r.first <- Float.min r.first e.at;
      r.last <- Float.max r.last e.at
  in
  { Trace.Sink.enabled = true; push; flush = ignore }

let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Per-message-kind traffic: sends, deliveries, and drops split by cause.
   [sent <> delivered + dropped] only for messages still in flight when the
   trace ended (or from a crashed sender, which drops with no send). *)
let messages_sink tbl =
  let bump kind col =
    let name = Trace.Event.msg_kind_name kind in
    let r =
      match Hashtbl.find_opt tbl name with
      | Some r -> r
      | None ->
        let r = Array.make 5 0 in
        Hashtbl.add tbl name r;
        r
    in
    r.(col) <- r.(col) + 1
  in
  let push (e : Trace.Event.t) =
    match e.ev with
    | Trace.Event.Net_send { kind; _ } -> bump kind 0
    | Trace.Event.Net_deliver { kind; _ } -> bump kind 1
    | Trace.Event.Net_drop { kind; cause; _ } ->
      bump kind
        (match cause with Trace.Event.Loss -> 2 | Trace.Event.Partition -> 3 | Trace.Event.Down -> 4)
    | _ -> ()
  in
  { Trace.Sink.enabled = true; push; flush = ignore }

(* --stats: per-kind count plus first/last timestamp and the message
   traffic, no lifecycle or checker replay. *)
let print_stats kinds messages =
  let rows = sorted kinds in
  Printf.printf "== event stats (%d events, %d kinds) ==\n"
    (List.fold_left (fun acc (_, r) -> acc + r.n) 0 rows)
    (List.length rows);
  Printf.printf "%-20s %10s %14s %14s\n" "kind" "count" "first" "last";
  List.iter
    (fun (name, r) -> Printf.printf "%-20s %10d %14.6f %14.6f\n" name r.n r.first r.last)
    rows;
  let rows = sorted messages in
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
   by server host id (servers are hosts 0..N-1 under sharding) — and count
   per shard its events, grants, commits and net traffic.  Client-host
   events with no file (crash/recover/clock on a client) stay
   unattributed, in the last row. *)
let shards_sink owner shards =
  let rows = Array.make_matrix (shards + 1) 4 0 in
  let by_host h = if h >= 0 && h < shards then h else shards in
  let push (e : Trace.Event.t) =
    let shard =
      match e.ev with
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
      | Trace.Event.Cache_invalidate { file; _ } -> owner file
      | Trace.Event.Net_send { src; dst; _ }
      | Trace.Event.Net_deliver { src; dst; _ }
      | Trace.Event.Net_drop { src; dst; _ } ->
        if by_host src < shards then src else by_host dst
      | Trace.Event.Crash { host }
      | Trace.Event.Recover { host }
      | Trace.Event.Clock_drift { host; _ }
      | Trace.Event.Clock_step { host; _ } -> by_host host
      | Trace.Event.Heartbeat _ -> shards
    in
    let r = rows.(shard) in
    r.(0) <- r.(0) + 1;
    match e.ev with
    | Trace.Event.Lease_grant _ -> r.(1) <- r.(1) + 1
    | Trace.Event.Commit _ -> r.(2) <- r.(2) + 1
    | Trace.Event.Net_send _ | Trace.Event.Net_deliver _ | Trace.Event.Net_drop _ ->
      r.(3) <- r.(3) + 1
    | _ -> ()
  in
  (rows, { Trace.Sink.enabled = true; push; flush = ignore })

let print_shard_stats rows =
  let shards = Array.length rows - 1 in
  let events s = rows.(s).(0) in
  let attributed = List.fold_left (fun acc s -> acc + events s) 0 (List.init shards Fun.id) in
  Printf.printf "\n== per-shard breakdown (%d shards, %d attributed, %d unattributed) ==\n" shards
    attributed (events shards);
  Printf.printf "%-6s %10s %8s %10s %10s %10s\n" "shard" "events" "share" "grants" "commits" "net";
  List.init shards Fun.id
  |> List.sort (fun a b -> compare (events b, a) (events a, b))
  |> List.iter (fun s ->
         let share =
           if attributed = 0 then 0. else 100. *. float_of_int (events s) /. float_of_int attributed
         in
         Printf.printf "%-6d %10d %7.1f%% %10d %10d %10d\n" s (events s) share rows.(s).(1)
           rows.(s).(2) rows.(s).(3))

let end_name (l : Trace.Lifecycle.lease) =
  match l.ended with
  | None -> "active"
  | Some (Released Approved, _) -> "released/approved"
  | Some (Released Writer_self, _) -> "released/writer-self"
  | Some (Expired, _) -> "expired"
  | Some (Commit_sweep, _) -> "commit-sweep"
  | Some (Regrant, _) -> "regrant"
  | Some (Server_crash, _) -> "server-crash"

let opt_time = function None -> "never" | Some at -> Printf.sprintf "%.6f" at

(* The view keeps only the [limit] leases printed (all when [limit] is not
   positive) and counts the rest. *)
let print_leases life =
  let leases = Trace.Lifecycle.leases life and total = Trace.Lifecycle.started life in
  Printf.printf "== lease lifecycles (%d) ==\n" total;
  Printf.printf "%-6s %-6s %12s %12s %8s %12s  %s\n" "file" "holder" "granted" "ended" "renewals"
    "expiry" "end";
  List.iter
    (fun (l : Trace.Lifecycle.lease) ->
      Printf.printf "%-6d %-6d %12.6f %12.6f %8d %12s  %s\n" l.file l.holder l.granted_at
        (Trace.Lifecycle.lease_end life l) l.renewals (opt_time l.last_expiry) (end_name l))
    leases;
  let shown = List.length leases in
  if shown < total then Printf.printf "... %d more (raise --limit to see them)\n" (total - shown)

let resolution_text = function
  | None -> "unresolved"
  | Some (Trace.Lease_state.Res_approved at) -> Printf.sprintf "approved@%.6f" at
  | Some (Trace.Lease_state.Res_expired at) -> Printf.sprintf "expired@%.6f" at

let print_waits life =
  let waits = Trace.Lifecycle.waits life in
  Printf.printf "\n== write waits (%d) ==\n" (List.length waits);
  List.iter
    (fun (w : Trace.Lease_state.wait) ->
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
        (fun (b : Trace.Lease_state.blocker) ->
          Printf.printf "    blocked by client %d: %s\n" b.b_holder (resolution_text b.resolution))
        w.blockers)
    waits

let main path limit check_only stats shards map_seed =
  try
    if shards < 1 then failwith "--shards must be at least 1";
    let map = Shard.Shard_map.create ~seed:map_seed ~shards () in
    let servers = List.init shards Fun.id
    and owner f = Shard.Shard_map.owner map (Vstore.File_id.of_int f) in
    let kinds = Hashtbl.create 32 and messages = Hashtbl.create 16 in
    let by_shard, shard_sink = shards_sink owner shards in
    let checker = Trace.Checker.create ~servers ~owner () in
    let life =
      Trace.Lifecycle.create ~servers ~owner ?keep:(if limit > 0 then Some limit else None) ()
    in
    let consumers =
      if stats then messages_sink messages :: (if shards > 1 then [ shard_sink ] else [])
      else if check_only then [ Trace.Checker.sink checker ]
      else [ Trace.Checker.sink checker; Trace.Lifecycle.sink life ]
    in
    read path (Trace.Sink.tee (kinds_sink kinds :: consumers));
    if Hashtbl.length kinds = 0 then failwith (Printf.sprintf "no events decoded from %s" path);
    if stats then begin
      print_stats kinds messages;
      if shards > 1 then print_shard_stats by_shard;
      `Ok ()
    end
    else begin
      let rows = sorted kinds in
      Printf.printf "== events (%d) ==\n" (List.fold_left (fun acc (_, r) -> acc + r.n) 0 rows);
      List.iter (fun (k, r) -> Printf.printf "%-20s %d\n" k r.n) rows;
      if not check_only then begin
        Printf.printf "\n";
        print_leases life;
        print_waits life
      end;
      Printf.printf "\n== invariants ==\n";
      let report = Trace.Checker.report checker in
      Format.printf "%a@." Trace.Checker.pp_report report;
      if Trace.Checker.ok report then `Ok () else `Error (false, "invariant violations found")
    end
  with
  | Failure why | Sys_error why | Invalid_argument why -> `Error (false, why)

let path =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"TRACE" ~doc:"JSONL trace written by leases-sim --trace ('-' for stdin).")

let limit =
  Arg.(value & opt int 25
       & info [ "limit" ] ~docv:"N" ~doc:"Lease-table rows to print; 0 means all.")

let check_only =
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
           ~doc:"Read a sharded trace (leases-sim --shards N): servers are hosts 0..N-1 and a \
                 server crash ends only the leases and waits of the files its shard owns.")

let map_seed =
  Arg.(value & opt int64 1L
       & info [ "map-seed" ] ~docv:"SEED"
           ~doc:"Seed of the shard map; must match the --seed of the traced run (default 1).")

let cmd =
  let doc = "Summarise a protocol trace and verify the lease safety invariants." in
  Cmd.v (Cmd.info "leases-tracedump" ~doc)
    Term.(ret (const main $ path $ limit $ check_only $ stats $ shards $ map_seed))

let () = exit (Cmd.eval cmd)
