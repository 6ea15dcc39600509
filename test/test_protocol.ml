(* Protocol-level tests: one server, a few clients, hand-scripted
   interactions exercising every edge of the lease state machine. *)

open Simtime

let sec = Time.of_sec
let span = Time.Span.of_sec
let file = Vstore.File_id.of_int

type rig = {
  engine : Engine.t;
  liveness : Host.Liveness.t;
  partition : Netsim.Partition.t;
  net : Leases.Messages.payload Netsim.Net.t;
  server : Leases.Server.t;
  clients : Leases.Client.t array;
  store : Vstore.Store.t;
}

let make_rig ?(n = 2) ?(config = Leases.Config.default) ?loss ?seed ?jitter_seed ?tracer ?classify
    () =
  let engine = Engine.create () in
  let liveness = Host.Liveness.create () in
  let partition = Netsim.Partition.create () in
  let rng = Option.map (fun seed -> Prng.Splitmix.create ~seed) seed in
  let net =
    Netsim.Net.create engine ~liveness ~partition ?rng ?loss ?tracer ?classify
      ~prop_delay:(Time.Span.of_ms 0.5) ~proc_delay:(Time.Span.of_ms 1.) ()
  in
  let server_host = Host.Host_id.of_int 0 in
  let client_hosts = List.init n (fun i -> Host.Host_id.of_int (i + 1)) in
  let store = Vstore.Store.create () in
  let server =
    Leases.Server.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host:server_host
      ~clients:client_hosts ~store ~config ?tracer ()
  in
  let clients =
    Array.of_list
      (List.mapi
         (fun i host ->
           let rng =
             Option.map
               (fun s -> Prng.Splitmix.create ~seed:(Int64.add s (Int64.of_int i)))
               jitter_seed
           in
           Leases.Client.create ~clock:(Clock.create engine ()) ~net ~liveness ~host
             ~server:server_host ?rng ~config ?tracer ())
         client_hosts)
  in
  { engine; liveness; partition; net; server; clients; store }

let at rig t f = ignore (Engine.schedule_at rig.engine (sec t) f)

let read_into rig client file results =
  Leases.Client.read rig.clients.(client) file ~k:(fun r -> results := r :: !results)

let test_read_grants_lease () =
  let rig = make_rig () in
  let results = ref [] in
  at rig 1. (fun () -> read_into rig 0 (file 0) results);
  Engine.run rig.engine;
  (match !results with
  | [ r ] ->
    Alcotest.(check bool) "not from cache" false r.Leases.Client.r_from_cache;
    Alcotest.(check (float 1e-7)) "one RPC" 0.005 (Time.Span.to_sec r.Leases.Client.r_latency);
    Alcotest.(check int) "initial version" 0 (Vstore.Version.to_int r.Leases.Client.r_version)
  | _ -> Alcotest.fail "expected one read");
  Alcotest.(check bool) "client holds a lease" true
    (Leases.Client.holds_valid_lease rig.clients.(0) (file 0));
  Alcotest.(check int) "server records the holder" 1
    (List.length (Leases.Server.live_leases rig.server (file 0)))

let test_cache_hit_within_term () =
  let rig = make_rig () in
  let results = ref [] in
  at rig 1. (fun () -> read_into rig 0 (file 0) results);
  at rig 5. (fun () -> read_into rig 0 (file 0) results);
  Engine.run rig.engine;
  match !results with
  | [ second; _first ] ->
    Alcotest.(check bool) "hit" true second.Leases.Client.r_from_cache;
    Alcotest.(check (float 0.)) "zero latency" 0. (Time.Span.to_sec second.Leases.Client.r_latency);
    Alcotest.(check int) "one miss only" 1 (Leases.Client.misses rig.clients.(0))
  | _ -> Alcotest.fail "expected two reads"

let test_lease_expires () =
  let rig = make_rig () in
  let results = ref [] in
  at rig 1. (fun () -> read_into rig 0 (file 0) results);
  (* default term is 10 s; at t=15 the lease is gone *)
  at rig 15. (fun () -> read_into rig 0 (file 0) results);
  Engine.run rig.engine;
  match !results with
  | [ second; _ ] ->
    Alcotest.(check bool) "expired -> server round" false second.Leases.Client.r_from_cache;
    Alcotest.(check int) "two misses" 2 (Leases.Client.misses rig.clients.(0))
  | _ -> Alcotest.fail "expected two reads"

let test_zero_term_always_checks () =
  let config = Leases.Config.with_term Leases.Config.default Leases.Lease.term_zero in
  let rig = make_rig ~config () in
  let results = ref [] in
  at rig 1. (fun () -> read_into rig 0 (file 0) results);
  at rig 1.5 (fun () -> read_into rig 0 (file 0) results);
  Engine.run rig.engine;
  Alcotest.(check int) "every read a miss" 2 (Leases.Client.misses rig.clients.(0));
  Alcotest.(check bool) "no lease held" false
    (Leases.Client.holds_valid_lease rig.clients.(0) (file 0))

let test_no_lease_reply_leaves_no_cache_entry () =
  (* Regression: a reply carrying no lease to a client with no copy used to
     insert a phantom zero-expiry cache entry, permanently inflating
     cache_size (and the telemetry occupancy series) for files the client
     never actually cached. *)
  let config = Leases.Config.with_term Leases.Config.default Leases.Lease.term_zero in
  let rig = make_rig ~config () in
  let results = ref [] in
  at rig 1. (fun () -> read_into rig 0 (file 0) results);
  at rig 2. (fun () -> read_into rig 0 (file 1) results);
  Engine.run rig.engine;
  Alcotest.(check int) "both reads completed" 2 (List.length !results);
  List.iter
    (fun r -> Alcotest.(check bool) "served by the server" false r.Leases.Client.r_from_cache)
    !results;
  Alcotest.(check int) "no phantom entries booked" 0
    (Leases.Client.cache_size rig.clients.(0))

let test_write_approval_round () =
  let rig = make_rig () in
  let write_result = ref None in
  at rig 1. (fun () -> read_into rig 1 (file 0) (ref []));
  at rig 2. (fun () ->
      Leases.Client.write rig.clients.(0) (file 0) ~k:(fun w -> write_result := Some w));
  Engine.run rig.engine;
  (match !write_result with
  | Some w ->
    Alcotest.(check int) "version bumped" 1 (Vstore.Version.to_int w.Leases.Client.w_version);
    (* write RPC (5 ms) + approval round (~5 ms) *)
    let ms = 1000. *. Time.Span.to_sec w.Leases.Client.w_latency in
    Alcotest.(check bool) "approval adds a round" true (ms > 7. && ms < 13.)
  | None -> Alcotest.fail "write never completed");
  Alcotest.(check int) "client 1 answered the callback" 1
    (Leases.Client.approvals_answered rig.clients.(1));
  Alcotest.(check bool) "holder's copy invalidated" false
    (Leases.Client.holds_valid_lease rig.clients.(1) (file 0));
  Alcotest.(check int) "lease table cleared" 0
    (List.length (Leases.Server.live_leases rig.server (file 0)))

let test_writer_implicit_approval () =
  (* the writer being the only leaseholder: single round trip, no callbacks *)
  let rig = make_rig () in
  let write_result = ref None in
  at rig 1. (fun () -> read_into rig 0 (file 0) (ref []));
  at rig 2. (fun () ->
      Leases.Client.write rig.clients.(0) (file 0) ~k:(fun w -> write_result := Some w));
  Engine.run rig.engine;
  (match !write_result with
  | Some w ->
    Alcotest.(check (float 1e-7)) "plain RPC" 0.005 (Time.Span.to_sec w.Leases.Client.w_latency)
  | None -> Alcotest.fail "write never completed");
  Alcotest.(check int) "no callbacks" 0 (Leases.Server.callbacks_sent rig.server)

let test_reader_sees_new_version_after_write () =
  let rig = make_rig () in
  let late_read = ref None in
  at rig 1. (fun () -> read_into rig 1 (file 0) (ref []));
  at rig 2. (fun () -> Leases.Client.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  at rig 3. (fun () ->
      Leases.Client.read rig.clients.(1) (file 0) ~k:(fun r -> late_read := Some r));
  Engine.run rig.engine;
  match !late_read with
  | Some r ->
    Alcotest.(check int) "sees version 1" 1 (Vstore.Version.to_int r.Leases.Client.r_version);
    Alcotest.(check bool) "via server (copy was invalidated)" false r.Leases.Client.r_from_cache
  | None -> Alcotest.fail "read never completed"

let test_no_grants_while_write_pending () =
  (* the anti-starvation footnote: a file with a write waiting gives out no
     new leases, so readers cannot starve the writer *)
  let rig = make_rig ~n:3 () in
  let read_during = ref None in
  at rig 1. (fun () -> read_into rig 1 (file 0) (ref []));
  (* client 1 now holds a lease; crash it so the write must wait out the term *)
  at rig 2. (fun () -> Host.Liveness.crash rig.liveness (Host.Host_id.of_int 2));
  at rig 3. (fun () -> Leases.Client.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  at rig 4. (fun () ->
      Leases.Client.read rig.clients.(2) (file 0) ~k:(fun r -> read_during := Some r));
  Engine.run rig.engine;
  (match !read_during with
  | Some r ->
    (* the read is answered (with the still-current old version) but gets
       no lease *)
    Alcotest.(check int) "old version still current" 0
      (Vstore.Version.to_int r.Leases.Client.r_version);
    Alcotest.(check bool) "no lease granted during pending write" false
      (Leases.Client.holds_valid_lease rig.clients.(2) (file 0))
  | None -> Alcotest.fail "read never completed");
  Alcotest.(check int) "write committed eventually" 1 (Leases.Server.commits rig.server)

let test_queued_writes_fifo () =
  let rig = make_rig ~n:3 () in
  let order = ref [] in
  at rig 1. (fun () -> read_into rig 2 (file 0) (ref []));
  at rig 2. (fun () -> Host.Liveness.crash rig.liveness (Host.Host_id.of_int 3));
  (* two writes queue behind the blocked one; they must commit in order *)
  at rig 3. (fun () ->
      Leases.Client.write rig.clients.(0) (file 0) ~k:(fun w ->
          order := ("a", Vstore.Version.to_int w.Leases.Client.w_version) :: !order));
  at rig 4. (fun () ->
      Leases.Client.write rig.clients.(1) (file 0) ~k:(fun w ->
          order := ("b", Vstore.Version.to_int w.Leases.Client.w_version) :: !order));
  Engine.run rig.engine;
  Alcotest.(check (list (pair string int))) "fifo versions" [ ("a", 1); ("b", 2) ]
    (List.rev !order)

let test_batched_extension () =
  let rig = make_rig () in
  (* populate three files, let the leases lapse, then one read renews all *)
  at rig 1. (fun () -> read_into rig 0 (file 0) (ref []));
  at rig 1.2 (fun () -> read_into rig 0 (file 1) (ref []));
  at rig 1.4 (fun () -> read_into rig 0 (file 2) (ref []));
  at rig 15. (fun () -> read_into rig 0 (file 1) (ref []));
  at rig 15.1 (fun () -> read_into rig 0 (file 0) (ref []));
  at rig 15.2 (fun () -> read_into rig 0 (file 2) (ref []));
  Engine.run rig.engine;
  (* misses: 3 cold + 1 at 15 (which renewed everything); the two reads
     right after are hits again *)
  Alcotest.(check int) "batching renews siblings" 4 (Leases.Client.misses rig.clients.(0));
  Alcotest.(check int) "hits" 2 (Leases.Client.hits rig.clients.(0))

let test_unbatched_extension () =
  let config = { Leases.Config.default with Leases.Config.batch_extensions = false } in
  let rig = make_rig ~config () in
  at rig 1. (fun () -> read_into rig 0 (file 0) (ref []));
  at rig 1.2 (fun () -> read_into rig 0 (file 1) (ref []));
  at rig 15. (fun () -> read_into rig 0 (file 1) (ref []));
  at rig 15.1 (fun () -> read_into rig 0 (file 0) (ref []));
  Engine.run rig.engine;
  Alcotest.(check int) "every lapsed file re-misses" 4 (Leases.Client.misses rig.clients.(0))

let test_anticipatory_renewal () =
  let config =
    { Leases.Config.default with Leases.Config.anticipatory_renewal = Some (span 2.) }
  in
  let rig = make_rig ~config () in
  let late = ref None in
  at rig 1. (fun () -> read_into rig 0 (file 0) (ref []));
  (* lease expires ~10.9; renewal fires ~8.9; the read at 15 still hits *)
  at rig 15. (fun () -> Leases.Client.read rig.clients.(0) (file 0) ~k:(fun r -> late := Some r));
  Engine.run ~until:(sec 16.) rig.engine;
  (match !late with
  | Some r -> Alcotest.(check bool) "still cached thanks to renewal" true r.Leases.Client.r_from_cache
  | None -> Alcotest.fail "read never completed");
  Alcotest.(check bool) "renewals sent" true (Leases.Client.renewals_sent rig.clients.(0) >= 1)

let test_retransmission_under_loss () =
  (* 60 % loss: RPCs still complete via retries, and dedup keeps a
     retransmitted write from committing twice.  The horizon covers the
     loss tail at the client's backoff, which doubles to 8 s. *)
  let rig = make_rig ~loss:0.6 ~seed:77L () in
  let reads = ref [] in
  let writes = ref [] in
  for i = 0 to 9 do
    at rig (1. +. float_of_int i) (fun () -> read_into rig 0 (file i) reads)
  done;
  at rig 20. (fun () ->
      Leases.Client.write rig.clients.(0) (file 0) ~k:(fun w -> writes := w :: !writes));
  Engine.run ~until:(sec 1_000.) rig.engine;
  Alcotest.(check int) "all reads completed" 10 (List.length !reads);
  Alcotest.(check int) "write completed" 1 (List.length !writes);
  Alcotest.(check int) "write applied exactly once" 1 (Leases.Server.commits rig.server);
  Alcotest.(check bool) "retransmissions happened" true
    (Leases.Client.retransmissions rig.clients.(0) > 0)

let test_backoff_jitter_spreads_retries () =
  (* Four clients whose RPCs all fail at the same instant (server down)
     retry in lockstep without jitter; with per-client PRNGs the k-th
     retransmissions de-correlate across the backoff window. *)
  let retry_times ?jitter_seed () =
    let buf = Trace.Sink.buffer () in
    let rig = make_rig ~n:4 ?jitter_seed ~tracer:(Trace.Sink.buffer_sink buf) () in
    at rig 0.5 (fun () -> Host.Liveness.crash rig.liveness (Host.Host_id.of_int 0));
    for i = 0 to 3 do
      at rig 1. (fun () -> read_into rig i (file i) (ref []))
    done;
    Engine.run ~until:(sec 40.) rig.engine;
    (* per-client list of request-send instants, in order *)
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (e : Trace.Event.t) ->
        match e.Trace.Event.ev with
        | Trace.Event.Net_send { src; dst = 0; _ } ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl src) in
          Hashtbl.replace tbl src (e.Trace.Event.at :: prev)
        | _ -> ())
      (Trace.Sink.buffer_contents buf);
    let per_client = Hashtbl.fold (fun _ times acc -> List.rev times :: acc) tbl [] in
    Alcotest.(check int) "four clients retrying" 4 (List.length per_client);
    per_client
  in
  let nth_retry per_client k = List.map (fun times -> List.nth times k) per_client in
  let distinct times =
    List.length (List.sort_uniq (fun a b -> Float.compare a b) times)
  in
  let lockstep = retry_times () in
  let jittered = retry_times ~jitter_seed:11L () in
  List.iter
    (fun times -> Alcotest.(check bool) "enough retries" true (List.length times >= 4))
    (lockstep @ jittered);
  for k = 1 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "retry %d synchronized without jitter" k)
      1
      (distinct (nth_retry lockstep k));
    Alcotest.(check bool)
      (Printf.sprintf "retry %d spread with jitter" k)
      true
      (distinct (nth_retry jittered k) >= 3)
  done

let test_installed_refresh () =
  let installed_files = [ file 0; file 1 ] in
  let config =
    {
      Leases.Config.default with
      Leases.Config.installed =
        Some { Leases.Config.files = installed_files; period = span 4.; term = span 9. };
    }
  in
  let rig = make_rig ~config () in
  at rig 1. (fun () -> read_into rig 0 (file 0) (ref []));
  (* multicast refreshes keep extending the lease: reads at 12, 25, 40 all hit *)
  at rig 12. (fun () -> read_into rig 0 (file 0) (ref []));
  at rig 25. (fun () -> read_into rig 0 (file 0) (ref []));
  at rig 40. (fun () -> read_into rig 0 (file 0) (ref []));
  Engine.run ~until:(sec 41.) rig.engine;
  Alcotest.(check int) "single cold miss" 1 (Leases.Client.misses rig.clients.(0));
  Alcotest.(check int) "the rest free" 3 (Leases.Client.hits rig.clients.(0));
  (* no per-client record for installed files *)
  Alcotest.(check int) "no holder tracking" 0
    (List.length (Leases.Server.live_leases rig.server (file 0)))

let test_installed_write_delayed_update () =
  let config =
    {
      Leases.Config.default with
      Leases.Config.installed =
        Some { Leases.Config.files = [ file 0 ]; period = span 4.; term = span 9. };
    }
  in
  let rig = make_rig ~config () in
  let w = ref None in
  let late = ref None in
  at rig 1. (fun () -> read_into rig 1 (file 0) (ref []));
  at rig 6. (fun () -> Leases.Client.write rig.clients.(0) (file 0) ~k:(fun r -> w := Some r));
  at rig 30. (fun () -> Leases.Client.read rig.clients.(1) (file 0) ~k:(fun r -> late := Some r));
  Engine.run ~until:(sec 31.) rig.engine;
  (match !w with
  | Some w ->
    let wait = Time.Span.to_sec w.Leases.Client.w_latency in
    (* must wait out the refresh coverage (granted at ~4, term 9 -> ~13),
       and send no callbacks at all *)
    Alcotest.(check bool) "delayed update" true (wait > 5. && wait < 10.);
    Alcotest.(check int) "no callbacks for installed files" 0
      (Leases.Server.callbacks_sent rig.server)
  | None -> Alcotest.fail "write never completed");
  match !late with
  | Some r -> Alcotest.(check int) "new version visible" 1 (Vstore.Version.to_int r.Leases.Client.r_version)
  | None -> Alcotest.fail "late read never completed"

let test_unicast_approvals () =
  let config = { Leases.Config.default with Leases.Config.approval_multicast = false } in
  let rig = make_rig ~n:3 ~config () in
  at rig 1. (fun () -> read_into rig 1 (file 0) (ref []));
  at rig 1.5 (fun () -> read_into rig 2 (file 0) (ref []));
  at rig 2. (fun () -> Leases.Client.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  Engine.run rig.engine;
  (* 2(S-1) approval messages: one request per holder plus each reply *)
  Alcotest.(check int) "2(S-1) approval messages" 4
    (Leases.Server.messages_handled rig.server Leases.Messages.Approval);
  Alcotest.(check int) "write committed" 1 (Leases.Server.commits rig.server)

let test_multicast_approvals_cheaper () =
  let rig = make_rig ~n:3 () in
  at rig 1. (fun () -> read_into rig 1 (file 0) (ref []));
  at rig 1.5 (fun () -> read_into rig 2 (file 0) (ref []));
  at rig 2. (fun () -> Leases.Client.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  Engine.run rig.engine;
  (* S messages: one multicast plus S-1 replies *)
  Alcotest.(check int) "S approval messages" 3
    (Leases.Server.messages_handled rig.server Leases.Messages.Approval)

let test_wait_only_writes () =
  let config = { Leases.Config.default with Leases.Config.callback_on_write = false } in
  let rig = make_rig ~config () in
  let w = ref None in
  at rig 1. (fun () -> read_into rig 1 (file 0) (ref []));
  at rig 2. (fun () -> Leases.Client.write rig.clients.(0) (file 0) ~k:(fun r -> w := Some r));
  Engine.run rig.engine;
  match !w with
  | Some w ->
    (* no callback: the full residual term (~9 s) must elapse *)
    Alcotest.(check bool) "waited out the lease" true
      (Time.Span.to_sec w.Leases.Client.w_latency > 8.);
    Alcotest.(check int) "zero callbacks" 0 (Leases.Server.callbacks_sent rig.server)
  | None -> Alcotest.fail "write never completed"

let test_term_compensation_for_distant_client () =
  (* Section 4: the server grants a distant client extra term.  Here the
     compensation is deliberately large (5 s) so the effect is plainly
     observable: the compensated client still hits at t=14 s where an
     uncompensated one has expired. *)
  let distant = Host.Host_id.of_int 2 in
  let config =
    {
      Leases.Config.default with
      Leases.Config.term_compensation =
        Some (fun host -> if Host.Host_id.equal host distant then span 5. else Time.Span.zero);
    }
  in
  let rig = make_rig ~n:2 ~config () in
  at rig 1. (fun () -> read_into rig 0 (file 0) (ref []));
  at rig 1. (fun () -> read_into rig 1 (file 1) (ref []));
  Engine.run ~until:(sec 14.) rig.engine;
  (* default term 10 s: the near client's lease (host 1) is gone, the
     distant client's (host 2) compensated lease still stands *)
  Alcotest.(check bool) "near client expired" false
    (Leases.Client.holds_valid_lease rig.clients.(0) (file 0));
  Alcotest.(check bool) "distant client still covered" true
    (Leases.Client.holds_valid_lease rig.clients.(1) (file 1))

let test_client_crash_clears_cache () =
  let rig = make_rig () in
  at rig 1. (fun () -> read_into rig 0 (file 0) (ref []));
  at rig 2. (fun () -> Host.Liveness.crash rig.liveness (Host.Host_id.of_int 1));
  at rig 3. (fun () -> Host.Liveness.recover rig.liveness (Host.Host_id.of_int 1));
  let after = ref None in
  at rig 4. (fun () -> Leases.Client.read rig.clients.(0) (file 0) ~k:(fun r -> after := Some r));
  Engine.run rig.engine;
  match !after with
  | Some r ->
    Alcotest.(check bool) "cold after crash" false r.Leases.Client.r_from_cache;
    Alcotest.(check int) "cache emptied" 1 (Leases.Client.cache_size rig.clients.(0))
  | None -> Alcotest.fail "read never completed"

let test_server_crash_recovery_wait () =
  let rig = make_rig () in
  let w = ref None in
  at rig 1. (fun () -> read_into rig 0 (file 0) (ref []));
  at rig 2. (fun () -> Host.Liveness.crash rig.liveness (Host.Host_id.of_int 0));
  at rig 4. (fun () -> Host.Liveness.recover rig.liveness (Host.Host_id.of_int 0));
  at rig 5. (fun () -> Leases.Client.write rig.clients.(0) (file 0) ~k:(fun r -> w := Some r));
  Engine.run ~until:(sec 60.) rig.engine;
  (match !w with
  | Some w ->
    (* recovery at 4 + max term 10 = 14; write at 5 waits ~9 s *)
    let wait = Time.Span.to_sec w.Leases.Client.w_latency in
    Alcotest.(check bool) "waits out the max granted term" true (wait > 8. && wait < 10.)
  | None -> Alcotest.fail "write never completed");
  Alcotest.(check bool) "server reports recovering during the window" false
    (Leases.Server.recovering rig.server)

let test_consistency_message_accounting () =
  let rig = make_rig () in
  at rig 1. (fun () -> read_into rig 0 (file 0) (ref []));
  at rig 2. (fun () -> read_into rig 1 (file 0) (ref []));
  at rig 3. (fun () -> Leases.Client.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  Engine.run rig.engine;
  (* 2 reads -> 4 extension msgs; 1 approval multicast + 1 reply -> 2;
     write req + rep -> 2 *)
  Alcotest.(check int) "extension msgs" 4
    (Leases.Server.messages_handled rig.server Leases.Messages.Extension);
  Alcotest.(check int) "approval msgs" 2
    (Leases.Server.messages_handled rig.server Leases.Messages.Approval);
  Alcotest.(check int) "write transfer msgs" 2
    (Leases.Server.messages_handled rig.server Leases.Messages.Write_transfer);
  Alcotest.(check int) "consistency = ext + approval" 6
    (Leases.Server.consistency_messages rig.server)

let test_messages_counted_at_server_both_directions () =
  (* The per-class counters sit at the server and count both directions:
     a request handled and a reply sent each cost one message, and the
     reply counts at send time even if it is never delivered. *)
  let rig = make_rig () in
  at rig 1. (fun () -> read_into rig 0 (file 0) (ref []));
  (* crash the reader after its request is handled (~t=1.0015) but before
     the reply can land (~t=1.003) *)
  at rig 1.002 (fun () -> Host.Liveness.crash rig.liveness (Host.Host_id.of_int 1));
  Engine.run rig.engine;
  Alcotest.(check int) "request in + reply out = 2 extension msgs" 2
    (Leases.Server.messages_handled rig.server Leases.Messages.Extension);
  Alcotest.(check int) "the reply really was dropped" 1 (Netsim.Net.dropped_down rig.net);
  let by_class =
    List.fold_left
      (fun acc c -> acc + Leases.Server.messages_handled rig.server c)
      0
      [ Leases.Messages.Extension; Approval; Installed; Write_transfer ]
  in
  Alcotest.(check int) "total = sum over classes" by_class
    (Leases.Server.messages_handled_total rig.server);
  Alcotest.(check int) "consistency counts extension + approval only" 2
    (Leases.Server.consistency_messages rig.server)

let test_cache_eviction_reclaims_expired_entries () =
  (* Regression: expired entries used to sit in the client cache forever —
     a long-lived client touching many files grew its cache (and every
     O(cache) walk) without bound.  With an eviction grace configured, a
     later miss reclaims every entry whose term lapsed more than the grace
     ago. *)
  let config =
    { Leases.Config.default with Leases.Config.cache_eviction_grace = Some (span 2.) }
  in
  let rig = make_rig ~config () in
  let results = ref [] in
  at rig 1. (fun () ->
      for i = 0 to 4 do
        read_into rig 0 (file i) results
      done);
  at rig 2. (fun () ->
      Alcotest.(check int) "five entries cached while live" 5
        (Leases.Client.cache_size rig.clients.(0)));
  (* default term 10 s: everything granted at ~1 lapses by ~11; grace 2 s
     makes the entries reclaimable from ~13; the next miss is at 30 *)
  at rig 30. (fun () -> read_into rig 0 (file 9) results);
  at rig 31. (fun () ->
      Alcotest.(check int) "the miss evicted every lapsed entry" 1
        (Leases.Client.cache_size rig.clients.(0));
      Alcotest.(check int) "evictions counted" 5 (Leases.Client.evictions rig.clients.(0)));
  (* Past the grace, with a warm cache, a miss on a new file must leave the
     eviction bound at the earliest expiry the client recorded: file 9's
     first one, 30.005 s + 10 s - 2.5 ms transit - 100 ms skew.  Inserting
     the new entry used to note its placeholder expiry (time zero), which
     pinned the bound below every cutoff, so each later miss ran an
     eviction pass that found nothing to evict. *)
  at rig 32. (fun () -> read_into rig 0 (file 10) results);
  at rig 33. (fun () ->
      Alcotest.(check int) "the new file is cached" 2 (Leases.Client.cache_size rig.clients.(0));
      Alcotest.(check (option (float 1e-6)))
        "the bound is the earliest real expiry" (Some 39.9025)
        (Leases.Lease.expiry_sec (Leases.Client.eviction_bound rig.clients.(0))));
  Engine.run rig.engine;
  Alcotest.(check int) "all reads completed" 7 (List.length !results);
  Alcotest.(check int) "nothing else evicted" 5 (Leases.Client.evictions rig.clients.(0))

let test_sweep_cadence_never_perturbs_trace () =
  (* The server's periodic lease-table sweep only reaps records every
     query already excluded, and its timer events are daemon events; so
     the sweep cadence — including no sweep at all — must leave a seeded
     run's observable trace byte-identical once the sweep's own
     [lease-expire] events are filtered out. *)
  let run_traced ~sweep () =
    let buf = Trace.Sink.buffer () in
    let config =
      { Leases.Config.default with Leases.Config.lease_sweep_interval = sweep }
    in
    let rig =
      make_rig ~n:3 ~config ~seed:5L ~jitter_seed:7L ~loss:0.05
        ~tracer:(Trace.Sink.buffer_sink buf) ()
    in
    for c = 0 to 2 do
      at rig (1. +. (0.1 *. float_of_int c)) (fun () -> read_into rig c (file 0) (ref []));
      at rig (2. +. (0.3 *. float_of_int c)) (fun () -> read_into rig c (file (c + 1)) (ref []))
    done;
    at rig 6. (fun () -> Leases.Client.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
    at rig 25. (fun () -> read_into rig 1 (file 0) (ref []));
    at rig 40. (fun () -> read_into rig 2 (file 2) (ref []));
    Engine.run rig.engine;
    List.filter_map
      (fun (e : Trace.Event.t) ->
        match e.Trace.Event.ev with
        | Trace.Event.Lease_expire _ -> None
        | _ -> Some (Trace.Codec.encode e))
      (Trace.Sink.buffer_contents buf)
  in
  let base = run_traced ~sweep:None () in
  Alcotest.(check bool) "scenario produced traffic" true (List.length base > 20);
  List.iter
    (fun interval ->
      Alcotest.(check (list string))
        (Printf.sprintf "sweep every %gs leaves the trace unchanged" interval)
        base
        (run_traced ~sweep:(Some (span interval)) ()))
    [ 0.5; 2.; 10. ]

(* --- the renewal batch ------------------------------------------------ *)

(* Client 0 (host 1) reads a random file of 40 every 0.7 s, or one time in
   six writes it, while client 1 writes one every 5 s, which invalidates
   client 0's copy.  A write leaves the writer's own entry unleased, so a
   3 s eviction grace evicts it at a later miss; client 0 crashes at 100 s
   for 10 s.
   The cached-file set is modelled as a list from the client's trace
   events (a lease line adds its file, an invalidation or eviction removes
   it, the crash empties it).  Every request client 0 sends must carry
   [missed :: the rest of the model ascending] on a miss, and the model
   ascending on an anticipatory renewal; every extension reply must share
   its request's array, and every retransmission must resend the request
   as it is. *)
let check_batches_against_model ~config ~loss =
  let model = ref [] in
  let missed = ref None in
  let crashed = ref false in
  let sink =
    {
      Trace.Sink.enabled = true;
      push =
        (fun { Trace.Event.ev; _ } ->
          match ev with
          | Trace.Event.Client_lease { host = 1; file = f; _ } ->
            if not (List.mem f !model) then model := f :: !model
          | Trace.Event.Cache_invalidate { host = 1; file = f } ->
            model := List.filter (fun g -> g <> f) !model
          | Trace.Event.Cache_miss { host = 1; file = f } -> missed := Some f
          | _ -> ());
      flush = ignore;
    }
  in
  let requests = Hashtbl.create 64 in
  let misses = ref 0 and renewals = ref 0 and replies = ref 0 and longest = ref 0 in
  let check_request files =
    let files = Array.to_list (Array.map Vstore.File_id.to_int files) in
    let expected =
      match !missed with
      | Some f ->
        incr misses;
        f :: List.sort Int.compare (List.filter (fun g -> g <> f) !model)
      | None ->
        incr renewals;
        List.sort Int.compare !model
    in
    missed := None;
    longest := Int.max !longest (List.length files);
    Alcotest.(check (list int)) "request carries the modelled batch" expected files
  in
  (* [classify] sees a payload at its send and at its delivery or drop; a
     request's first sight is its first send *)
  let sent req payload ~check =
    match Hashtbl.find_opt requests req with
    | Some first -> Alcotest.(check bool) "a request is resent as it is" true (first == payload)
    | None ->
      Hashtbl.replace requests req payload;
      check ()
  in
  let classify payload =
    (match payload with
    | Leases.Messages.Read_request { req; file = f } ->
      sent req payload ~check:(fun () -> check_request [| f |])
    | Leases.Messages.Extend_request { req; files } ->
      sent req payload ~check:(fun () -> check_request files)
    | Leases.Messages.Extend_reply { req; files; _ } -> (
      incr replies;
      match Hashtbl.find requests req with
      | Leases.Messages.Extend_request { files = asked; _ } ->
        Alcotest.(check bool) "a reply shares its request's files" true (asked == files)
      | _ -> Alcotest.fail "an extension reply to a read request")
    | _ -> ());
    Leases.Messages.trace_class payload
  in
  let rig = make_rig ~config ~loss ~seed:7L ~tracer:sink ~classify () in
  let rng = Random.State.make [| 25 |] in
  for i = 1 to 280 do
    let f = file (Random.State.int rng 40) in
    let write = Random.State.int rng 6 = 0 in
    at rig (0.7 *. float_of_int i) (fun () ->
        if !crashed then ()
        else if write then Leases.Client.write rig.clients.(0) f ~k:(fun _ -> ())
        else read_into rig 0 f (ref []))
  done;
  for i = 1 to 39 do
    let f = file (Random.State.int rng 40) in
    at rig (5. *. float_of_int i +. 0.3) (fun () ->
        Leases.Client.write rig.clients.(1) f ~k:(fun _ -> ()))
  done;
  at rig 100. (fun () ->
      crashed := true;
      model := [];
      Host.Liveness.crash rig.liveness (Host.Host_id.of_int 1));
  at rig 110. (fun () ->
      crashed := false;
      Host.Liveness.recover rig.liveness (Host.Host_id.of_int 1));
  Engine.run ~until:(sec 230.) rig.engine;
  Alcotest.(check bool) "misses carried batches" true (!misses > 50 && !longest > 10);
  Alcotest.(check bool) "replies checked" true (!replies > 20);
  Alcotest.(check bool) "entries evicted" true (Leases.Client.evictions rig.clients.(0) > 0);
  if loss > 0. then
    Alcotest.(check bool) "requests retransmitted" true
      (Leases.Client.retransmissions rig.clients.(0) > 0);
  !renewals

let test_batch_matches_model () =
  let config = { Leases.Config.default with cache_eviction_grace = Some (span 3.) } in
  ignore (check_batches_against_model ~config ~loss:0.);
  ignore (check_batches_against_model ~config ~loss:0.05);
  let renewals =
    check_batches_against_model ~loss:0.
      ~config:{ config with anticipatory_renewal = Some (span 2.) }
  in
  Alcotest.(check bool) "anticipatory renewals checked" true (renewals > 0)

(* Words allocated (minor + major - promoted) by one renewal round trip of
   client 0 holding [lines] lapsed leases: it reads files 0..lines-1 one
   by one, and at 20 s, after every lease lapsed, one miss on file 0
   renews them all. *)
let round_trip_words lines =
  let config = { Leases.Config.default with lease_sweep_interval = None } in
  let rig = make_rig ~config () in
  for i = 0 to lines - 1 do
    at rig (1. +. (0.01 *. float_of_int i)) (fun () -> read_into rig 0 (file i) (ref []))
  done;
  Engine.run ~until:(sec 20.) rig.engine;
  let done_ = ref false in
  (* The minor part comes from [Gc.minor_words]: on OCaml 5.1,
     [Gc.counters] counts the live minor heap at an eighth of its size. *)
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  Leases.Client.read rig.clients.(0) (file 0) ~k:(fun _ -> done_ := true);
  Engine.run rig.engine;
  let used = words () -. before in
  Alcotest.(check bool) "the round trip completed" true !done_;
  Alcotest.(check int) "one miss renewed every line" (lines + 1)
    (Leases.Client.misses rig.clients.(0));
  used

(* A batch allocates a fixed number of blocks: its request array and the
   reply's two arrays, one word a line each, whatever its line count.  A
   per-line block of even one field would add at least two words a line. *)
let test_batch_allocation_bounded () =
  let small = round_trip_words 20 and large = round_trip_words 200 in
  let per_line = (large -. small) /. 180. in
  if per_line > 3.5 then
    Alcotest.failf "a renewal line allocates %.2f words (20 lines: %.0f, 200 lines: %.0f)" per_line
      small large

let () =
  Alcotest.run "protocol"
    [
      ( "grant+read",
        [
          Alcotest.test_case "read grants lease" `Quick test_read_grants_lease;
          Alcotest.test_case "cache hit within term" `Quick test_cache_hit_within_term;
          Alcotest.test_case "lease expires" `Quick test_lease_expires;
          Alcotest.test_case "zero term always checks" `Quick test_zero_term_always_checks;
          Alcotest.test_case "no-lease reply leaves no cache entry" `Quick
            test_no_lease_reply_leaves_no_cache_entry;
        ] );
      ( "write",
        [
          Alcotest.test_case "approval round" `Quick test_write_approval_round;
          Alcotest.test_case "writer implicit approval" `Quick test_writer_implicit_approval;
          Alcotest.test_case "reader sees new version" `Quick test_reader_sees_new_version_after_write;
          Alcotest.test_case "anti-starvation" `Quick test_no_grants_while_write_pending;
          Alcotest.test_case "queued writes fifo" `Quick test_queued_writes_fifo;
          Alcotest.test_case "unicast approvals" `Quick test_unicast_approvals;
          Alcotest.test_case "multicast approvals cheaper" `Quick test_multicast_approvals_cheaper;
          Alcotest.test_case "wait-only writes" `Quick test_wait_only_writes;
        ] );
      ( "options",
        [
          Alcotest.test_case "batched extension" `Quick test_batched_extension;
          Alcotest.test_case "unbatched extension" `Quick test_unbatched_extension;
          Alcotest.test_case "anticipatory renewal" `Quick test_anticipatory_renewal;
          Alcotest.test_case "installed refresh" `Quick test_installed_refresh;
          Alcotest.test_case "installed delayed update" `Quick test_installed_write_delayed_update;
          Alcotest.test_case "term compensation" `Quick test_term_compensation_for_distant_client;
        ] );
      ( "renewals",
        [
          Alcotest.test_case "batch matches a list model" `Quick test_batch_matches_model;
          Alcotest.test_case "allocation bounded per line" `Quick test_batch_allocation_bounded;
        ] );
      ( "failures",
        [
          Alcotest.test_case "retransmission under loss" `Quick test_retransmission_under_loss;
          Alcotest.test_case "backoff jitter spreads retries" `Quick
            test_backoff_jitter_spreads_retries;
          Alcotest.test_case "client crash clears cache" `Quick test_client_crash_clears_cache;
          Alcotest.test_case "cache eviction reclaims expired entries" `Quick
            test_cache_eviction_reclaims_expired_entries;
          Alcotest.test_case "sweep cadence never perturbs trace" `Quick
            test_sweep_cadence_never_perturbs_trace;
          Alcotest.test_case "server crash recovery wait" `Quick test_server_crash_recovery_wait;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "message classes" `Quick test_consistency_message_accounting;
          Alcotest.test_case "counted at server, both directions" `Quick
            test_messages_counted_at_server_both_directions;
        ] );
    ]
