(* The paper's Section-2 story: a diskless workstation running latex.

   A workstation obtains a 10-second lease on the latex binary; repeated
   runs within the term hit the cache without any server traffic.  When a
   new version of latex is installed, the write is delayed until every
   leaseholder approves — and if one of them has crashed, until its lease
   expires, which is the whole point of making the promise time-limited.

   Run with:  dune exec examples/diskless_workstation.exe *)

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
  let desk_host = Host.Host_id.of_int 1 in (* the workstation producing a document *)
  let lab_host = Host.Host_id.of_int 2 in (* a lab machine that will crash *)
  let admin_host = Host.Host_id.of_int 3 in (* the admin installing a new latex *)
  let config = Leases.Config.default in
  let store = Vstore.Store.create () in

  (* The file server also names the files: /usr/bin/latex lives in a
     directory whose name-to-file binding is itself leasable data. *)
  let next_id = ref 0 in
  let fresh_id () =
    let id = Vstore.File_id.of_int !next_id in
    incr next_id;
    id
  in
  let namespace = Vstore.Namespace.create ~fresh_id in
  let bin_dir = Vstore.Namespace.make_directory namespace "/usr/bin" in
  let latex = fresh_id () in
  Vstore.Namespace.bind namespace ~dir:"/usr/bin" ~name:"latex" latex;

  let _server =
    Leases.Server.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host:server_host
      ~clients:[ desk_host; lab_host; admin_host ] ~store ~config ()
  in
  let make_client host =
    Leases.Client.create ~clock:(Clock.create engine ()) ~net ~liveness ~host
      ~server:server_host ~config ()
  in
  let desk = make_client desk_host in
  let lab = make_client lab_host in
  let admin = make_client admin_host in

  let t () = Format.asprintf "%a" Time.pp (Engine.now engine) in
  let run_latex who client k =
    (* Running latex = a read of the directory binding plus a read of the
       binary; both need leases to be served from the cache. *)
    Leases.Client.read client bin_dir ~k:(fun dir_r ->
        Leases.Client.read client latex ~k:(fun bin_r ->
            printf "%-6s t=%-9s ran latex v%d (lookup: %s, binary: %s)\n" who (t ())
              (Vstore.Version.to_int bin_r.Leases.Client.r_version)
              (if dir_r.Leases.Client.r_from_cache then "cached" else "server")
              (if bin_r.Leases.Client.r_from_cache then "cached" else "server");
            k ()))
  in
  let at sec f = ignore (Engine.schedule_at engine (Time.of_sec sec) f) in

  at 0.0 (fun () -> run_latex "desk" desk (fun () -> ()));
  at 5.0 (fun () -> run_latex "desk" desk (fun () -> ()));
  (* 5 s later: both reads are free cache hits, exactly the paper's example *)
  at 8.0 (fun () -> run_latex "lab" lab (fun () -> ()));
  at 9.0 (fun () ->
      printf "lab    t=%-9s crashes while holding its lease\n" (t ());
      Host.Liveness.crash liveness lab_host);
  at 10.0 (fun () ->
      printf "admin  t=%-9s installs a new latex (write must wait for the lab's lease)\n" (t ());
      Leases.Client.write admin latex ~k:(fun w ->
          printf "admin  t=%-9s install committed as v%d after %.2f s\n" (t ())
            (Vstore.Version.to_int w.Leases.Client.w_version)
            (Time.Span.to_sec w.Leases.Client.w_latency)));
  at 25.0 (fun () -> run_latex "desk" desk (fun () -> ()));
  (* the desk machine picks up the new binary once its own lease lapses *)
  Engine.run engine;
  printf "\nThe install waited out the crashed lab machine's 10 s lease — bounded\n";
  printf "by the term, not by the crash duration.  No client ever saw a stale binary.\n"
