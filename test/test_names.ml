(* Tests for the leased name cache: repeated opens are free, renames are
   writes with full approval semantics, and nobody ever resolves a name
   against stale directory information. *)

open Simtime

let sec = Time.of_sec

type rig = {
  engine : Engine.t;
  service : Leases.Names.Service.t;
  caches : Leases.Names.Cache.t array;
  clients : Leases.Client.t array;
  server : Leases.Server.t;
  liveness : Host.Liveness.t;
  latex : Vstore.File_id.t;
}

let make_rig ?(n = 2) () =
  let engine = Engine.create () in
  let liveness = Host.Liveness.create () in
  let net =
    Netsim.Net.create engine ~liveness ~prop_delay:(Time.Span.of_ms 0.5)
      ~proc_delay:(Time.Span.of_ms 1.) ()
  in
  let next = ref 1000 in
  let fresh_id () =
    let id = Vstore.File_id.of_int !next in
    incr next;
    id
  in
  let service = Leases.Names.Service.create ~fresh_id in
  ignore (Leases.Names.Service.make_directory service "/bin");
  let latex = fresh_id () in
  Vstore.Namespace.bind (Leases.Names.Service.namespace service) ~dir:"/bin" ~name:"latex" latex;
  let server_host = Host.Host_id.of_int 0 in
  let client_hosts = List.init n (fun i -> Host.Host_id.of_int (i + 1)) in
  let store = Vstore.Store.create () in
  let server =
    Leases.Server.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host:server_host
      ~clients:client_hosts ~store ~config:Leases.Config.default
      ~on_commit:(Leases.Names.Service.on_commit service) ()
  in
  let clients =
    Array.of_list
      (List.map
         (fun host ->
           Leases.Client.create ~clock:(Clock.create engine ()) ~net ~liveness ~host
             ~server:server_host ~config:Leases.Config.default ())
         client_hosts)
  in
  let caches = Array.map (fun client -> Leases.Names.Cache.create ~client ~service) clients in
  { engine; service; caches; clients; server; liveness; latex }

let at rig t f = ignore (Engine.schedule_at rig.engine (sec t) f)

let test_repeated_open_is_free () =
  let rig = make_rig ~n:1 () in
  let results = ref [] in
  let open_it () =
    Leases.Names.Cache.open_file rig.caches.(0) ~dir:"/bin" ~name:"latex" ~k:(fun r ->
        results := r :: !results)
  in
  at rig 1. open_it;
  at rig 5. open_it;
  Engine.run rig.engine;
  match List.rev !results with
  | [ first; second ] ->
    Alcotest.(check bool) "first open fetches" false first.Leases.Names.Cache.o_dir_cached;
    Alcotest.(check bool) "file found" true (first.Leases.Names.Cache.o_file = Some rig.latex);
    Alcotest.(check bool) "repeat open: lookup cached" true second.Leases.Names.Cache.o_dir_cached;
    Alcotest.(check bool) "repeat open: binary cached" true second.Leases.Names.Cache.o_file_cached
  | _ -> Alcotest.fail "expected two opens"

let test_missing_name () =
  let rig = make_rig ~n:1 () in
  let result = ref None in
  at rig 1. (fun () ->
      Leases.Names.Cache.open_file rig.caches.(0) ~dir:"/bin" ~name:"vi" ~k:(fun r ->
          result := Some r));
  Engine.run rig.engine;
  match !result with
  | Some r -> Alcotest.(check bool) "no such file" true (r.Leases.Names.Cache.o_file = None)
  | None -> Alcotest.fail "open never completed"

let test_rename_is_a_write () =
  let rig = make_rig () in
  let after = ref None in
  (* client 1 caches the lookup, then client 0 renames: the rename must
     wait for client 1's approval (its naming lease) before the namespace
     changes *)
  at rig 1. (fun () ->
      Leases.Names.Cache.open_file rig.caches.(1) ~dir:"/bin" ~name:"latex" ~k:(fun _ -> ()));
  at rig 2. (fun () ->
      Leases.Names.Cache.rename rig.caches.(0) ~dir:"/bin" ~old_name:"latex" ~new_name:"latex2"
        ~k:(fun () -> ()));
  at rig 3. (fun () ->
      Leases.Names.Cache.open_file rig.caches.(1) ~dir:"/bin" ~name:"latex2" ~k:(fun r ->
          after := Some r));
  Engine.run rig.engine;
  (match !after with
  | Some r ->
    Alcotest.(check bool) "new name resolves" true (r.Leases.Names.Cache.o_file = Some rig.latex);
    Alcotest.(check bool) "directory re-fetched after invalidation" false
      r.Leases.Names.Cache.o_dir_cached
  | None -> Alcotest.fail "open never completed");
  Alcotest.(check int) "client 1 approved the rename" 1
    (Leases.Client.approvals_answered rig.clients.(1));
  Alcotest.(check bool) "old name gone" true
    (Vstore.Namespace.lookup (Leases.Names.Service.namespace rig.service) ~dir:"/bin" ~name:"latex"
    = None)

let test_rename_blocked_by_crashed_holder () =
  let rig = make_rig () in
  let rename_done = ref Time.zero in
  at rig 1. (fun () ->
      Leases.Names.Cache.open_file rig.caches.(1) ~dir:"/bin" ~name:"latex" ~k:(fun _ -> ()));
  at rig 2. (fun () -> Host.Liveness.crash rig.liveness (Host.Host_id.of_int 2));
  at rig 3. (fun () ->
      Leases.Names.Cache.rename rig.caches.(0) ~dir:"/bin" ~old_name:"latex" ~new_name:"latex2"
        ~k:(fun () -> rename_done := Engine.now rig.engine));
  Engine.run ~until:(sec 30.) rig.engine;
  (* the crashed client's naming lease (granted ~1, term 10) delays the
     rename until ~11 *)
  let done_at = Time.to_sec !rename_done in
  Alcotest.(check bool) "rename waited for the naming lease" true
    (done_at > 10. && done_at < 12.)

let test_bind_and_unbind () =
  let rig = make_rig ~n:1 () in
  let vi = Vstore.File_id.of_int 7 in
  let resolved = ref None in
  at rig 1. (fun () -> Leases.Names.Cache.bind rig.caches.(0) ~dir:"/bin" ~name:"vi" vi ~k:(fun () -> ()));
  at rig 2. (fun () ->
      Leases.Names.Cache.open_file rig.caches.(0) ~dir:"/bin" ~name:"vi" ~k:(fun r ->
          resolved := r.Leases.Names.Cache.o_file));
  at rig 3. (fun () -> Leases.Names.Cache.unbind rig.caches.(0) ~dir:"/bin" ~name:"vi" ~k:(fun () -> ()));
  at rig 4. (fun () ->
      Leases.Names.Cache.open_file rig.caches.(0) ~dir:"/bin" ~name:"vi" ~k:(fun r ->
          resolved := r.Leases.Names.Cache.o_file));
  Engine.run rig.engine;
  Alcotest.(check bool) "unbound again" true (!resolved = None);
  Alcotest.(check int) "no mutations left pending" 0
    (Leases.Names.Service.pending rig.service
       (Option.get (Leases.Names.Service.directory_id rig.service "/bin")))

let test_unknown_directory () =
  let rig = make_rig ~n:1 () in
  Alcotest.check_raises "unknown directory"
    (Invalid_argument "Names.Cache: unknown directory \"/nope\"") (fun () ->
      Leases.Names.Cache.open_file rig.caches.(0) ~dir:"/nope" ~name:"x" ~k:(fun _ -> ()))

let () =
  Alcotest.run "names"
    [
      ( "open",
        [
          Alcotest.test_case "repeated open is free" `Quick test_repeated_open_is_free;
          Alcotest.test_case "missing name" `Quick test_missing_name;
          Alcotest.test_case "unknown directory" `Quick test_unknown_directory;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "rename is a write" `Quick test_rename_is_a_write;
          Alcotest.test_case "rename blocked by crashed holder" `Quick
            test_rename_blocked_by_crashed_holder;
          Alcotest.test_case "bind + unbind" `Quick test_bind_and_unbind;
        ] );
    ]
