(* The approval round that the lease server, the callback server and the
   write-back server share (Leases.Approval), driven through each real
   server by scripted clients: hosts that record what the server sends
   them and answer its requests after a set delay, or never.  Every case
   runs against all three servers. *)

open Simtime

let span = Time.Span.of_sec
let file = Vstore.File_id.of_int 0
let host = Host.Host_id.of_int

(* One server's wire protocol, as a scripted client sees it.  [hold] takes
   a copy of the file (a read, a fetch, a read lease); [write] asks to
   change it (a write, a write lease).  [ask] reads the round id of a
   request for approval, [answer] approves one, and [reply] reads the
   request id a server reply answers.  [deadline] is the round's deadline
   given when the silent holder's copy was granted and when the write
   reached the server. *)
type 'm proto = {
  name : string;
  build : 'm Leases.Cluster.fabric -> Vstore.Store.t -> unit;
  hold : req:int -> 'm;
  write : req:int -> 'm;
  ask : 'm -> int option;
  answer : int -> 'm;
  reply : 'm -> int option;
  deadline : held:float -> wrote:float -> float;
}

type proto_any = Proto : 'm proto -> proto_any

let term = 10.

let lease =
  Proto
    {
      name = "lease";
      build =
        (fun w store ->
          ignore
            (Leases.Server.create ~engine:w.engine ~clock:(Clock.create w.engine ()) ~net:w.net
               ~liveness:w.liveness ~host:Leases.Cluster.server_host ~clients:[] ~store
               ~config:
                 {
                   (Leases.Config.with_term Leases.Config.default
                      (Leases.Lease.term_of_sec term))
                   with
                   lease_sweep_interval = None;
                 }
               ()));
      hold = (fun ~req -> Leases.Messages.Read_request { req; file });
      write = (fun ~req -> Leases.Messages.Write_request { req; file });
      ask = (function Leases.Messages.Approval_request { write; _ } -> Some write | _ -> None);
      answer = (fun write -> Leases.Messages.Approval_reply { write; file });
      reply =
        (function
        | Leases.Messages.Read_reply { req; _ } | Leases.Messages.Write_reply { req; _ } -> Some req
        | _ -> None);
      deadline = (fun ~held ~wrote:_ -> held +. term);
    }

let callback =
  Proto
    {
      name = "callback";
      build = (fun w store -> ignore (Baselines.Callback.create_server w store));
      hold = (fun ~req -> Baselines.Rpc_cache.Fetch_request { req; file });
      write = (fun ~req -> Baselines.Rpc_cache.Write_request { req; file });
      ask = (function Baselines.Rpc_cache.Break_request { wid; _ } -> Some wid | _ -> None);
      answer = (fun wid -> Baselines.Rpc_cache.Break_reply { wid; file });
      reply =
        (function
        | Baselines.Rpc_cache.Fetch_reply { req; _ } | Baselines.Rpc_cache.Write_reply { req; _ } ->
          Some req
        | _ -> None);
      deadline = (fun ~held:_ ~wrote -> wrote +. 3.);
    }

let write_back =
  Proto
    {
      name = "write-back";
      build =
        (fun w store ->
          ignore
            (Wlease.Wserver.create ~engine:w.engine ~clock:(Clock.create w.engine ()) ~net:w.net
               ~liveness:w.liveness ~host:Leases.Cluster.server_host ~store ~term:(span term) ()));
      hold =
        (fun ~req ->
          Wlease.Wmessages.Acquire_request { req; file; mode = Wlease.Wmessages.Read_lease });
      write =
        (fun ~req ->
          Wlease.Wmessages.Acquire_request { req; file; mode = Wlease.Wmessages.Write_lease });
      ask = (function Wlease.Wmessages.Recall_request { recall; _ } -> Some recall | _ -> None);
      answer = (fun recall -> Wlease.Wmessages.Recall_reply { recall; file });
      reply = (function Wlease.Wmessages.Acquire_reply { req; _ } -> Some req | _ -> None);
      deadline = (fun ~held ~wrote:_ -> held +. term);
    }

(* A server on host 0 and one scripted client on each host 1..n, where n
   is [answer_after]'s length.  Client [i] answers a request for approval
   [answer_after.(i - 1)] seconds after it arrives, or never when that is
   [None].  [log] holds every message a client received, with its arrival
   and receiver. *)
type 'm world = {
  p : 'm proto;
  w : 'm Leases.Cluster.fabric;
  mutable log : (float * int * 'm) list;  (** newest first *)
}

let world (p : 'm proto) ~answer_after =
  let w =
    Leases.Cluster.fabric ~rng:(Prng.Splitmix.create ~seed:1L) ~loss:0.
      ~m_prop:(Time.Span.of_ms 0.5) ~m_proc:(Time.Span.of_ms 1.) ()
  in
  p.build w (Vstore.Store.create ());
  let t = { p; w; log = [] } in
  Array.iteri
    (fun i after ->
      let me = host (i + 1) in
      Netsim.Net.register w.net me (fun env ->
          t.log <- (Time.to_sec (Engine.now w.engine), i + 1, env.Netsim.Net.payload) :: t.log;
          match p.ask env.payload, after with
          | Some id, Some after ->
            ignore
              (Engine.schedule_after w.engine (span after) (fun () ->
                   Netsim.Net.send w.net ~src:me ~dst:Leases.Cluster.server_host (p.answer id)))
          | Some _, None | None, _ -> ()))
    answer_after;
  t

let send_at t s ~client m =
  ignore
    (Engine.schedule_at t.w.engine (Time.of_sec s) (fun () ->
         Netsim.Net.send t.w.net ~src:(host client) ~dst:Leases.Cluster.server_host m))

let run_until t s = Engine.run t.w.engine ~until:(Time.of_sec s)
let transit t = Time.Span.to_sec (Netsim.Net.transit t.w.net)
let log t = List.rev t.log

(* Arrival instants of the requests for approval client [c] received. *)
let asks t c =
  List.filter_map
    (fun (at, to_, m) -> if to_ = c && Option.is_some (t.p.ask m) then Some at else None)
    (log t)

(* Arrival instants of the replies to request [req]. *)
let replies t req =
  List.filter_map (fun (at, _, m) -> if t.p.reply m = Some req then Some at else None) (log t)

let close_to ~tol a b = Float.abs (a -. b) <= tol

(* Clients 2 and 3 take the file at 0.1 s; client 3 never answers, client
   2 at once.  Client 1 writes at 0.2 s. *)
let silent_holder (type m) (p : m proto) =
  let t = world p ~answer_after:[| Some 0.; Some 0.; None |] in
  send_at t 0.1 ~client:2 (p.hold ~req:102);
  send_at t 0.1 ~client:3 (p.hold ~req:103);
  send_at t 0.2 ~client:1 (p.write ~req:1);
  run_until t 20.;
  t

let test_reask (Proto p) () =
  let t = silent_holder p in
  Alcotest.(check int) "the answering holder is asked once" 1 (List.length (asks t 2));
  let silent = asks t 3 in
  Alcotest.(check bool) "the silent holder is asked again" true (List.length silent >= 3);
  let rec gaps = function a :: (b :: _ as rest) -> (b -. a) :: gaps rest | [ _ ] | [] -> [] in
  List.iter
    (fun gap ->
      Alcotest.(check bool) (Printf.sprintf "re-asked after %g s" gap) true
        (close_to ~tol:1e-6 gap 1.))
    (gaps silent)

let test_deadline (Proto p) () =
  let t = silent_holder p in
  let tr = transit t in
  let deadline = p.deadline ~held:(0.1 +. tr) ~wrote:(0.2 +. tr) in
  (match replies t 1 with
  | [ at ] ->
    Alcotest.(check bool)
      (Printf.sprintf "the write commits at its deadline (%g s), replied at %g s" deadline at)
      true
      (close_to ~tol:1e-4 at (deadline +. tr))
  | l -> Alcotest.failf "%d replies to the write" (List.length l));
  Alcotest.(check bool) "the silent holder is not asked after the round closes" true
    (List.for_all (fun at -> at < deadline) (asks t 3));
  (* The abandoned holder holds nothing the next write must wait for. *)
  let asked = List.length (asks t 3) in
  send_at t 21. ~client:1 (p.write ~req:2);
  run_until t 30.;
  Alcotest.(check int) "the next write asks nobody" asked (List.length (asks t 3));
  match replies t 2 with
  | [ at ] ->
    Alcotest.(check bool) "and commits at once" true (close_to ~tol:1e-4 at (21. +. (2. *. tr)))
  | l -> Alcotest.failf "%d replies to the next write" (List.length l)

(* Client 2 holds the file and answers 0.3 s after each request; client 1
   writes at 0.2 s and client 3 at 0.25 s, which queues; both resend their
   writes twice while they are pending or queued. *)
let test_duplicates (Proto p) () =
  let t = world p ~answer_after:[| Some 0.3; Some 0.3; Some 0.3 |] in
  send_at t 0.1 ~client:2 (p.hold ~req:102);
  send_at t 0.2 ~client:1 (p.write ~req:1);
  send_at t 0.25 ~client:3 (p.write ~req:3);
  List.iter
    (fun s ->
      send_at t s ~client:1 (p.write ~req:1);
      send_at t s ~client:3 (p.write ~req:3))
    [ 0.3; 0.4 ];
  run_until t 0.45;
  Alcotest.(check int) "no reply while the first round is open" 0
    (List.length (replies t 1) + List.length (replies t 3));
  run_until t 5.;
  Alcotest.(check int) "the pending write is served once" 1 (List.length (replies t 1));
  Alcotest.(check int) "the queued write is served once" 1 (List.length (replies t 3))

(* Client 2 holds the file and answers 0.3 s after each request; clients
   1, 3, 4 and 5 write in that order, 10 ms apart. *)
let test_fifo (Proto p) () =
  let t = world p ~answer_after:(Array.make 5 (Some 0.3)) in
  send_at t 0.1 ~client:2 (p.hold ~req:102);
  List.iteri
    (fun i client -> send_at t (0.2 +. (0.01 *. float_of_int i)) ~client (p.write ~req:client))
    [ 1; 3; 4; 5 ];
  run_until t 10.;
  let order =
    List.filter_map (fun (_, c, m) -> if p.reply m = Some c && c <> 2 then Some c else None) (log t)
  in
  Alcotest.(check (list int)) "writes served in arrival order" [ 1; 3; 4; 5 ] order

let test_no_timer_left (Proto p) () =
  (* A round that closes on its answers leaves no timer behind. *)
  let t = world p ~answer_after:[| Some 0.; Some 0. |] in
  send_at t 0.1 ~client:2 (p.hold ~req:102);
  send_at t 0.2 ~client:1 (p.write ~req:1);
  run_until t (0.2 +. (1.5 *. transit t));
  Alcotest.(check bool) "an open round arms its timers" true (Engine.pending t.w.engine >= 2);
  run_until t 1.;
  Alcotest.(check int) "the write is served" 1 (List.length (replies t 1));
  Alcotest.(check int) "closing cancels both timers" 0 (Engine.pending t.w.engine);
  (* A crash with a round open cancels them too. *)
  let t = world p ~answer_after:[| Some 0.; None |] in
  send_at t 0.1 ~client:2 (p.hold ~req:102);
  send_at t 0.2 ~client:1 (p.write ~req:1);
  run_until t 0.5;
  Alcotest.(check int) "the round is still open" 0 (List.length (replies t 1));
  Host.Liveness.crash t.w.liveness Leases.Cluster.server_host;
  run_until t 0.6;
  Alcotest.(check int) "a crash cancels both timers" 0 (Engine.pending t.w.engine)

let cases =
  List.concat_map
    (fun (Proto p as proto) ->
      List.map
        (fun (what, f) -> Alcotest.test_case (Printf.sprintf "%s: %s" p.name what) `Quick (f proto))
        [
          ("silent holder re-asked", test_reask);
          ("deadline abandons the silent", test_deadline);
          ("duplicates dropped", test_duplicates);
          ("queued in FIFO order", test_fifo);
          ("no timer left", test_no_timer_left);
        ])
    [ lease; callback; write_back ]

let () = Alcotest.run "approval" [ ("approval round", cases) ]
