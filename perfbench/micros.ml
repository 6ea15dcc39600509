(* Layer micros, built from the public Engine / Clock / Liveness / Store /
   Net / Server / Client constructors and run at the shape a workload's
   traced run measured: [depth] live events parked in the engine's queue
   (its median depth) and [holders] leaseholders on the file a grant or
   write touches (its mean approval fan-out).

   The micro clusters use a term long enough that no lease expires while a
   micro runs, and turn piggybacked renewals off, so a miss is exactly one
   read RPC.  Each result is wall nanoseconds per operation. *)

open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id

let config =
  {
    (Leases.Config.with_term Leases.Config.default (Leases.Lease.term_of_sec 1e6)) with
    Leases.Config.batch_extensions = false;
  }

let prop_delay = Time.Span.of_ms 0.5
let proc_delay = Time.Span.of_ms 1.
let server_host = Host_id.of_int 0

(* Far-future daemon events: they hold the heap at [depth] without ever
   keeping [Engine.run] alive. *)
let engine_at_depth depth =
  let engine = Engine.create () in
  let far = Time.of_sec 1e6 in
  for i = 1 to depth do
    ignore (Engine.schedule_at engine ~daemon:true (Time.add far (Time.Span.of_us i)) ignore)
  done;
  engine

type cluster = {
  engine : Engine.t;
  net : Leases.Messages.payload Netsim.Net.t;
  clients : Leases.Client.t array;
}

let cluster ~depth ~clients =
  let engine = engine_at_depth depth in
  let liveness = Host.Liveness.create () in
  let net = Netsim.Net.create engine ~liveness ~prop_delay ~proc_delay () in
  let hosts = Array.init clients (fun i -> Host_id.of_int (i + 1)) in
  ignore
    (Leases.Server.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host:server_host
       ~clients:(Array.to_list hosts) ~store:(Vstore.Store.create ()) ~config ());
  let clients =
    Array.map
      (fun host ->
        Leases.Client.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host
          ~server:server_host ~config ())
      hosts
  in
  { engine; net; clients }

let ns_per ~timer ~ops f =
  let t0 = timer () in
  f ();
  (timer () -. t0) *. 1e9 /. float_of_int ops

let expect what ok = if not ok then failwith ("micro did not run as designed: " ^ what)

(* One unicast from send to its no-op handler, in batches of 64. *)
let net_deliver ~timer ~depth ~ops =
  let engine = engine_at_depth depth in
  let net = Netsim.Net.create engine ~prop_delay ~proc_delay () in
  let src = Host_id.of_int 0 and dst = Host_id.of_int 1 in
  Netsim.Net.register net dst ignore;
  let batches = max 1 (ops / 64) in
  let ns =
    ns_per ~timer ~ops:(batches * 64) (fun () ->
        for _ = 1 to batches do
          for _ = 1 to 64 do
            Netsim.Net.send net ~src ~dst ()
          done;
          Engine.run engine
        done)
  in
  expect "net deliveries" (Netsim.Net.deliveries net = batches * 64);
  ns

(* A read served from a leased cache entry: no message, no event. *)
let client_read_hit ~timer ~depth ~ops =
  let c = cluster ~depth ~clients:1 in
  let client = c.clients.(0) in
  let files = Array.init 64 File_id.of_int in
  Array.iter (fun f -> Leases.Client.read client f ~k:ignore) files;
  Engine.run c.engine;
  let ns =
    ns_per ~timer ~ops (fun () ->
        for i = 0 to ops - 1 do
          Leases.Client.read client files.(i land 63) ~k:ignore
        done)
  in
  expect "read hits" (Leases.Client.hits client = ops);
  ns

(* A read of a file the client never cached: the request, the server's
   grant and the reply, run to completion. *)
let client_read_miss ~timer ~depth ~ops =
  let c = cluster ~depth ~clients:1 in
  let client = c.clients.(0) in
  let ns =
    ns_per ~timer ~ops (fun () ->
        for i = 0 to ops - 1 do
          Leases.Client.read client (File_id.of_int i) ~k:ignore;
          Engine.run c.engine
        done)
  in
  expect "read misses" (Leases.Client.misses client = ops);
  ns

(* A read request on a file [holders] clients hold a lease on, from its
   delivery to the server through the grant to the reply's delivery at a
   no-op handler. *)
let server_grant ~timer ~depth ~holders ~ops =
  let c = cluster ~depth ~clients:holders in
  let file = File_id.of_int 0 in
  Array.iter (fun client -> Leases.Client.read client file ~k:ignore) c.clients;
  Engine.run c.engine;
  let probe = Host_id.of_int (holders + 1) in
  let replies = ref 0 in
  Netsim.Net.register c.net probe (fun _ -> incr replies);
  let ns =
    ns_per ~timer ~ops (fun () ->
        for req = 1 to ops do
          Netsim.Net.send c.net ~src:probe ~dst:server_host
            (Leases.Messages.Read_request { req; file });
          Engine.run c.engine
        done)
  in
  expect "grant replies" (!replies = ops);
  ns

(* A write on a file [holders] other clients hold leases on, from the
   request to its commit reply: the approval multicast, every holder's
   approval and the commit.  The holders re-read the file between writes,
   outside the timed part. *)
let server_write_commit ~timer ~depth ~holders ~writes =
  let c = cluster ~depth ~clients:(holders + 1) in
  let writer = c.clients.(holders) in
  let file = File_id.of_int 0 in
  let committed = ref 0 in
  let total = ref 0. in
  for _ = 1 to writes do
    for h = 0 to holders - 1 do
      Leases.Client.read c.clients.(h) file ~k:ignore
    done;
    Engine.run c.engine;
    let t0 = timer () in
    Leases.Client.write writer file ~k:(fun _ -> incr committed);
    Engine.run c.engine;
    total := !total +. (timer () -. t0)
  done;
  expect "write commits" (!committed = writes);
  !total *. 1e9 /. float_of_int writes

type shape = { depth : int; holders : int }

(* [scale] shrinks every op count for the smoke run. *)
let run ~timer ~scale { depth; holders } =
  let n base = max 4 (int_of_float (float_of_int base *. scale)) in
  let micro (m : Experiments.Corebench.micro) = 1e9 /. m.Experiments.Corebench.ops_per_sec in
  let dispatch = Experiments.Corebench.engine_dispatch ~timer ~ops:(n 200_000) in
  [
    ("simtime.push_pop_ns", micro (Experiments.Corebench.event_queue_push_pop ~timer ~ops:(n 1_000_000)));
    ("simtime.dispatch_ns", micro dispatch.Experiments.Corebench.dispatch_disabled);
    ("net.deliver_ns", net_deliver ~timer ~depth ~ops:(n 500_000));
    ("client.read_hit_ns", client_read_hit ~timer ~depth ~ops:(n 2_000_000));
    ("client.read_miss_ns", client_read_miss ~timer ~depth ~ops:(n 100_000));
    ("server.grant_ns", server_grant ~timer ~depth ~holders ~ops:(n 200_000));
    (* about 200 000 holder re-reads in all, between 20 and 2 000 writes *)
    ( "server.write_commit_ns",
      server_write_commit ~timer ~depth ~holders
        ~writes:(n (max 20 (min 2_000 (200_000 / (holders + 1))))) );
  ]
