(* The per-file gate (Leases.File_gate) on its own, and what it is for in
   the two caching clients: a client serialises its own operations on a
   file, so an operation issued while the client's read or write RPC on
   that file is in flight waits for it.  The client cases run against the
   lease client and the write-back client. *)

open Simtime
module Gate = Leases.File_gate

let file = Vstore.File_id.of_int
let sec = Time.of_sec

(* --- the gate ------------------------------------------------------------ *)

(* A waiter [n] completes as it is served when [n < 100], and holds the
   file otherwise; [served] records every waiter served, newest first. *)
let recorder () =
  let served = ref [] in
  let serve g f n =
    served := n :: !served;
    if n >= 100 then Gate.hold g f n
  in
  (served, serve)

let test_fifo () =
  let g = Gate.create () and served, serve = recorder () in
  Gate.hold g (file 0) 0;
  Gate.hold g (file 1) 10;
  List.iter (Gate.wait g (file 0)) [ 1; 2; 103; 4 ];
  Gate.wait g (file 1) 11;
  Alcotest.(check (pair int int)) "waiters and waiting files" (5, 2)
    (Gate.waiters g, Gate.waiting_files g);
  Gate.free g (file 0) serve g;
  Alcotest.(check (list int)) "served in order until one holds" [ 1; 2; 103 ] (List.rev !served);
  Alcotest.(check int) "the new holder" 103 (Gate.holder g (file 0));
  Alcotest.(check bool) "another file's waiter still waits" true
    (Gate.waits g (file 1) (fun n -> n = 11));
  served := [];
  Gate.free g (file 0) serve g;
  Alcotest.(check (list int)) "then the last" [ 4 ] !served;
  Alcotest.(check bool) "the file is free" false (Gate.held g (file 0));
  Alcotest.(check (pair int int)) "its drained queue is forgotten" (1, 1)
    (Gate.waiters g, Gate.waiting_files g);
  Gate.free g (file 1) serve g;
  Alcotest.(check (triple int int int)) "nothing held or waiting" (0, 0, 0)
    (Gate.held_files g, Gate.waiters g, Gate.waiting_files g)

let test_reset () =
  let g = Gate.create () and served, serve = recorder () in
  Gate.hold g (file 0) 100;
  List.iter (Gate.wait g (file 0)) [ 1; 2 ];
  Gate.hold g (file 7) 107;
  Gate.wait g (file 7) 3;
  Gate.reset g;
  Alcotest.(check (triple int int int)) "nothing held or waiting" (0, 0, 0)
    (Gate.held_files g, Gate.waiters g, Gate.waiting_files g);
  Alcotest.(check bool) "no holder" false (Gate.held g (file 0));
  Gate.free g (file 0) serve g;
  Gate.free g (file 7) serve g;
  Alcotest.(check (list int)) "no forgotten waiter is served" [] !served;
  Gate.hold g (file 0) 101;
  Gate.wait g (file 0) 4;
  Gate.free g (file 0) serve g;
  Alcotest.(check (list int)) "the gate serves again" [ 4 ] !served

(* Random arrivals and completions over three files against a list model.
   An arrival on a held file waits; on a free one it is served: a
   synchronous request ([sync]) completes at once, another holds the file.
   A completion frees the file.  After every event the gate agrees with
   the model, no file has waiters without a holder, and each file's
   requests have completed in arrival order. *)
let prop_model =
  QCheck.Test.make ~name:"gate = FIFO model, no waiters without a holder" ~count:500
    QCheck.(list (triple (int_bound 9) (int_bound 2) bool))
    (fun events ->
      let g = Gate.create () in
      let holder = Array.make 3 None and queue = Array.make 3 [] in
      let model_done = ref [] and gate_done = ref [] in
      let rec model_serve f =
        match holder.(f), queue.(f) with
        | None, (id, sync) :: rest ->
          queue.(f) <- rest;
          if sync then model_done := (f, id) :: !model_done else holder.(f) <- Some id;
          model_serve f
        | _ -> ()
      in
      let serve () fid (id, sync) =
        if sync then gate_done := (Vstore.File_id.to_int fid, id) :: !gate_done
        else Gate.hold g fid id
      in
      let step i (kind, f, sync) =
        let fid = file f in
        if kind = 0 then begin
          Gate.reset g;
          Array.fill holder 0 3 None;
          Array.fill queue 0 3 []
        end
        else if kind <= 5 then begin
          queue.(f) <- queue.(f) @ [ (i, sync) ];
          model_serve f;
          if Gate.held g fid then Gate.wait g fid (i, sync) else serve () fid (i, sync)
        end
        else begin
          (match holder.(f) with
          | Some id ->
            model_done := (f, id) :: !model_done;
            holder.(f) <- None;
            model_serve f
          | None -> ());
          if Gate.held g fid then begin
            gate_done := (f, Gate.holder g fid) :: !gate_done;
            Gate.free g fid serve ()
          end
        end;
        let agrees f =
          let waiting = Gate.waits g (file f) (fun _ -> true) in
          Gate.held g (file f) = Option.is_some holder.(f)
          && ((not waiting) || Gate.held g (file f))
          && waiting = (queue.(f) <> [])
        in
        let count p = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 in
        agrees 0 && agrees 1 && agrees 2
        && Gate.held_files g = count Option.is_some holder
        && Gate.waiting_files g = count (fun q -> q <> []) queue
        && Gate.waiters g = Array.fold_left (fun n q -> n + List.length q) 0 queue
        && !gate_done = !model_done
      in
      let ok = ref true in
      List.iteri (fun i e -> if not (step i e) then ok := false) events;
      let in_order f =
        let ids = List.filter_map (fun (f', id) -> if f' = f then Some id else None) !gate_done in
        List.sort_uniq Int.compare ids = List.rev ids
      in
      !ok && in_order 0 && in_order 1 && in_order 2)

(* --- the clients --------------------------------------------------------- *)

(* What a read returned, whichever client served it. *)
type seen = { version : int; from_cache : bool; dirty : bool }

(* One server on host 0 and one client on host 1, which reads and writes
   file 0; the net's transit is 2.5 ms and the client re-sends an
   unanswered RPC after 1 s. *)
type driver = {
  engine : Engine.t;
  liveness : Host.Liveness.t;
  partition : Netsim.Partition.t;
  store : Vstore.Store.t;
  read : (seen -> unit) -> unit;
  write : (unit -> unit) -> unit;
}

let server_host = Host.Host_id.of_int 0
let client_host = Host.Host_id.of_int 1

let fabric () =
  let engine = Engine.create () in
  let liveness = Host.Liveness.create () in
  let partition = Netsim.Partition.create () in
  let net =
    Netsim.Net.create engine ~liveness ~partition ~prop_delay:(Time.Span.of_ms 0.5)
      ~proc_delay:(Time.Span.of_ms 1.) ()
  in
  (engine, liveness, partition, net, Vstore.Store.create ())

let lease_client () =
  let engine, liveness, partition, net, store = fabric () in
  let config = Leases.Config.default in
  ignore
    (Leases.Server.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host:server_host
       ~clients:[ client_host ] ~store ~config ());
  let c =
    Leases.Client.create ~clock:(Clock.create engine ()) ~net ~liveness ~host:client_host
      ~server:server_host ~config ()
  in
  {
    engine;
    liveness;
    partition;
    store;
    read =
      (fun k ->
        Leases.Client.read c (file 0) ~k:(fun r ->
            k
              {
                version = Vstore.Version.to_int r.Leases.Client.r_version;
                from_cache = r.Leases.Client.r_from_cache;
                dirty = false;
              }));
    write = (fun k -> Leases.Client.write c (file 0) ~k:(fun _ -> k ()));
  }

let write_back_client () =
  let engine, liveness, partition, net, store = fabric () in
  ignore
    (Wlease.Wserver.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness
       ~host:server_host ~store ~term:(Time.Span.of_sec 10.) ());
  let c =
    Wlease.Wclient.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness
      ~host:client_host ~server:server_host
      ~skew_allowance:Leases.Config.default.skew_allowance ()
  in
  {
    engine;
    liveness;
    partition;
    store;
    read =
      (fun k ->
        Wlease.Wclient.read c (file 0) ~k:(fun r ->
            k
              {
                version = Vstore.Version.to_int r.Wlease.Wclient.r_version;
                from_cache = r.Wlease.Wclient.r_from_cache;
                dirty = r.Wlease.Wclient.r_dirty;
              }));
    write = (fun k -> Wlease.Wclient.write c (file 0) ~k:(fun _ -> k ()));
  }

let at d s f = ignore (Engine.schedule_at d.engine (sec s) f)
let now d = Time.to_sec (Engine.now d.engine)

(* The client writes at 2 s and reads 1 ms later.  The write's request
   reaches the server during a 1 ms partition and is lost, so its re-send
   lands 1 s later; the read's request would arrive after the partition
   heals, and without the gate the read would finish first, on the old
   version. *)
let read_behind_lost_write d =
  let reads = ref [] and wrote = ref None in
  at d 2. (fun () -> d.write (fun () -> wrote := Some (now d)));
  at d 2.001 (fun () -> d.read (fun r -> reads := (now d, r) :: !reads));
  at d 2.002 (fun () -> Netsim.Partition.isolate d.partition [ client_host ]);
  at d 2.003 (fun () -> Netsim.Partition.heal d.partition);
  Engine.run d.engine ~until:(sec 2.5);
  Alcotest.(check int) "the read waits for the lost write" 0 (List.length !reads);
  Engine.run d.engine ~until:(sec 30.);
  match !wrote, !reads with
  | Some w, [ (r, seen) ] ->
    Alcotest.(check bool) (Printf.sprintf "the read (%g s) completes after the write (%g s)" r w)
      true (r >= w);
    seen
  | None, _ -> Alcotest.fail "the write never completed"
  | Some _, l -> Alcotest.failf "%d reads completed" (List.length l)

let test_lease_read_behind_write () =
  let d = lease_client () in
  let seen = read_behind_lost_write d in
  Alcotest.(check int) "the read returns the write's version" 1 seen.version;
  Alcotest.(check int) "the store holds it" 1
    (Vstore.Version.to_int (Vstore.Store.current d.store (file 0)))

let test_write_back_read_behind_write () =
  let d = write_back_client () in
  let seen = read_behind_lost_write d in
  Alcotest.(check (pair bool bool)) "served from the new dirty copy" (true, true)
    (seen.from_cache, seen.dirty);
  Alcotest.(check int) "the write is flushed and accepted" 1
    (Vstore.Version.to_int (Vstore.Store.current d.store (file 0)))

(* A read misses at 1 s; a read, a write and a read are issued while its
   RPC is in flight. *)
let test_arrival_order mk () =
  let d = mk () in
  let log = ref [] in
  let note label r = log := (label, now d, r) :: !log in
  (* the write's entry carries no read result *)
  let wrote = { version = -1; from_cache = false; dirty = false } in
  at d 1. (fun () -> d.read (note "r1"));
  at d 1.0001 (fun () -> d.read (note "r2"));
  at d 1.0002 (fun () -> d.write (fun () -> note "w" wrote));
  at d 1.0003 (fun () -> d.read (note "r3"));
  Engine.run d.engine ~until:(sec 5.);
  let log = List.rev !log in
  Alcotest.(check (list string)) "completed in arrival order" [ "r1"; "r2"; "w"; "r3" ]
    (List.map (fun (l, _, _) -> l) log);
  match log with
  | [ (_, t1, r1); (_, t2, r2); (_, tw, _); (_, t3, r3) ] ->
    Alcotest.(check bool) "the queued read hits as the first completes" true
      (t2 = t1 && r2.from_cache && r2.version = r1.version && not r2.dirty);
    Alcotest.(check bool) "before the write is served" true (tw > t2);
    Alcotest.(check bool) "the last read sees the write" true
      (t3 >= tw && (r3.version > r1.version || r3.dirty))
  | _ -> Alcotest.fail "four completions"

(* A crash while a read's RPC is in flight and a read and a write wait
   behind it; the client recovers at 2 s and reads again at 3 s. *)
let test_crash_forgets mk () =
  let d = mk () in
  let completed = ref [] in
  let note label _ = completed := label :: !completed in
  at d 1. (fun () -> d.read (note "r1"));
  at d 1.0001 (fun () -> d.read (note "r2"));
  at d 1.0002 (fun () -> d.write (fun () -> note "w" ()));
  at d 1.001 (fun () -> Host.Liveness.crash d.liveness client_host);
  at d 2. (fun () -> Host.Liveness.recover d.liveness client_host);
  at d 3. (fun () -> d.read (note "after"));
  Engine.run d.engine ~until:(sec 30.);
  Alcotest.(check (list string)) "only the read after the recovery completes" [ "after" ]
    !completed

let client_cases =
  Alcotest.test_case "lease: a read waits for the client's write" `Quick
    test_lease_read_behind_write
  :: Alcotest.test_case "write-back: a read waits for the client's write" `Quick
       test_write_back_read_behind_write
  :: List.concat_map
       (fun (name, mk) ->
         [
           Alcotest.test_case (name ^ ": queued ops in arrival order") `Quick
             (test_arrival_order mk);
           Alcotest.test_case (name ^ ": a crash forgets the waiters") `Quick
             (test_crash_forgets mk);
         ])
       [ ("lease", lease_client); ("write-back", write_back_client) ]

let () =
  Alcotest.run "file gate"
    [
      ( "gate",
        [
          Alcotest.test_case "FIFO, drained queue forgotten" `Quick test_fifo;
          Alcotest.test_case "reset" `Quick test_reset;
          QCheck_alcotest.to_alcotest prop_model;
        ] );
      ("client serialisation", client_cases);
    ]
