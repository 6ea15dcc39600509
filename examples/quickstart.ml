(* Quickstart: build a one-server/two-client cluster by hand, do a few
   reads and writes, and watch the lease machinery work.

   Run with:  dune exec examples/quickstart.exe *)

open Simtime

let printf = Printf.printf

let () =
  (* 1. The substrate: a virtual clock/event engine, host liveness and a
     network with V-like message times (5 ms unicast round trip). *)
  let engine = Engine.create () in
  let liveness = Host.Liveness.create () in
  let net =
    Netsim.Net.create engine ~liveness ~prop_delay:(Time.Span.of_ms 0.5)
      ~proc_delay:(Time.Span.of_ms 1.) ()
  in

  (* 2. A file server granting 10-second leases, and two client caches. *)
  let server_host = Host.Host_id.of_int 0 in
  let alice_host = Host.Host_id.of_int 1 in
  let bob_host = Host.Host_id.of_int 2 in
  let config = Leases.Config.default (* 10 s fixed term *) in
  let store = Vstore.Store.create () in
  let _server =
    Leases.Server.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host:server_host
      ~clients:[ alice_host; bob_host ] ~store ~config ()
  in
  let alice =
    Leases.Client.create ~clock:(Clock.create engine ()) ~net ~liveness ~host:alice_host
      ~server:server_host ~config ()
  in
  let bob =
    Leases.Client.create ~clock:(Clock.create engine ()) ~net ~liveness ~host:bob_host
      ~server:server_host ~config ()
  in

  let report_read who (r : Leases.Client.read_result) =
    printf "%-6s t=%-8s read  -> version %d (%s, %.1f ms)\n" who
      (Format.asprintf "%a" Time.pp (Engine.now engine))
      (Vstore.Version.to_int r.Leases.Client.r_version)
      (if r.Leases.Client.r_from_cache then "cache hit" else "fetched")
      (Time.Span.to_ms r.Leases.Client.r_latency)
  in
  let report_write who (w : Leases.Client.write_result) =
    printf "%-6s t=%-8s write -> version %d (%.1f ms)\n" who
      (Format.asprintf "%a" Time.pp (Engine.now engine))
      (Vstore.Version.to_int w.Leases.Client.w_version)
      (Time.Span.to_ms w.Leases.Client.w_latency)
  in

  (* 3. A little script.  All activity is event-driven: schedule it, then
     run the engine. *)
  let file = Vstore.File_id.of_int 7 in
  let at sec f = ignore (Engine.schedule_at engine (Time.of_sec sec) f) in
  at 0.0 (fun () -> Leases.Client.read alice file ~k:(report_read "alice"));
  at 2.0 (fun () -> Leases.Client.read alice file ~k:(report_read "alice"));
  (* within the lease term: a free cache hit *)
  at 3.0 (fun () -> Leases.Client.read bob file ~k:(report_read "bob"));
  (* bob now holds a lease too, so alice's write needs bob's approval *)
  at 4.0 (fun () -> Leases.Client.write alice file ~k:(report_write "alice"));
  at 5.0 (fun () -> Leases.Client.read bob file ~k:(report_read "bob"));
  (* bob's copy was invalidated by the approval: this one re-fetches *)
  at 15.0 (fun () -> Leases.Client.read alice file ~k:(report_read "alice"));
  (* alice's lease has expired by now: an extension round trip *)
  Engine.run engine;

  printf "\nalice: %d hits / %d misses;  bob: %d hits / %d misses\n"
    (Leases.Client.hits alice) (Leases.Client.misses alice) (Leases.Client.hits bob)
    (Leases.Client.misses bob);
  printf "bob answered %d approval callback(s); the store is at version %d\n"
    (Leases.Client.approvals_answered bob)
    (Vstore.Version.to_int (Vstore.Store.current store file))
