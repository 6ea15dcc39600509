(* The non-write-through extension: write leases (MFS/Echo-style tokens).

   A designer keeps saving a document.  Under write-through leases every
   save pays a round trip; under a write lease the saves are local and the
   server sees one batched flush.  When a colleague opens the document,
   the server recalls the lease: the owner flushes and the colleague reads
   the latest save — never a stale one.

   Run with:  dune exec examples/write_back.exe *)

open Simtime

let printf = Printf.printf

let () =
  let engine = Engine.create () in
  let liveness = Host.Liveness.create () in
  let net =
    Netsim.Net.create engine ~liveness ~prop_delay:(Time.Span.of_ms 0.5)
      ~proc_delay:(Time.Span.of_ms 1.) ()
  in
  let server_host = Host.Host_id.of_int 0 in
  let store = Vstore.Store.create () in
  let _server =
    Wlease.Wserver.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness
      ~host:server_host ~store ~term:(Time.Span.of_sec 10.) ()
  in
  let make_client i =
    Wlease.Wclient.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness
      ~host:(Host.Host_id.of_int (i + 1)) ~server:server_host
      ~skew_allowance:Leases.Config.default.skew_allowance ()
  in
  let designer = make_client 0 in
  let colleague = make_client 1 in
  let doc = Vstore.File_id.of_int 42 in
  let t () = Format.asprintf "%a" Time.pp (Engine.now engine) in

  let save () =
    Wlease.Wclient.write designer doc ~k:(fun w ->
        printf "designer  t=%-9s save  (%.1f ms%s)\n" (t ())
          (Time.Span.to_ms w.Wlease.Wclient.w_latency)
          (if w.Wlease.Wclient.w_acquired_lease then ", acquired the write lease" else ", local"))
  in
  let at sec f = ignore (Engine.schedule_at engine (Time.of_sec sec) f) in
  at 1.0 save;
  at 2.0 save;
  at 3.0 save;
  at 4.0 (fun () ->
      printf "designer  t=%-9s has %d unflushed saves buffered locally\n" (t ())
        (Wlease.Wclient.dirty_writes designer doc));
  at 8.0 (fun () ->
      printf "colleague t=%-9s opens the document (server recalls the write lease)\n" (t ());
      Wlease.Wclient.read colleague doc ~k:(fun r ->
          printf "colleague t=%-9s sees version %d after %.1f ms — every save, nothing stale\n"
            (t ())
            (Vstore.Version.to_int r.Wlease.Wclient.r_version)
            (Time.Span.to_ms r.Wlease.Wclient.r_latency)));
  Engine.run ~until:(Time.of_sec 12.) engine;
  printf "\nstore is at version %d; designer lost %d writes; flushes: %d\n"
    (Vstore.Version.to_int (Vstore.Store.current store doc))
    (Wlease.Wclient.writes_lost designer)
    (Wlease.Wclient.flushes_sent designer)
