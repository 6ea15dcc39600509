(* Unit tests for the lease vocabulary: terms, grants, expiries and the
   term policies (including the adaptive tracker). *)

open Simtime

let sec = Time.of_sec
let span = Time.Span.of_sec

let test_terms () =
  Alcotest.(check bool) "zero is zero" true (Leases.Lease.term_is_zero Leases.Lease.term_zero);
  Alcotest.(check bool) "finite non-zero" false
    (Leases.Lease.term_is_zero (Leases.Lease.term_of_sec 1.));
  Alcotest.(check bool) "infinite not zero" false (Leases.Lease.term_is_zero Leases.Lease.Infinite);
  Alcotest.(check int) "ordering" (-1)
    (Leases.Lease.compare_term (Leases.Lease.term_of_sec 5.) Leases.Lease.Infinite);
  Alcotest.(check int) "infinite = infinite" 0
    (Leases.Lease.compare_term Leases.Lease.Infinite Leases.Lease.Infinite);
  Alcotest.check_raises "negative term" (Invalid_argument "Lease.term_of_sec: negative term")
    (fun () -> ignore (Leases.Lease.term_of_sec (-1.)))

let test_server_expiry () =
  let finite = Leases.Lease.server_expiry (Leases.Lease.term_of_sec 10.) ~granted_at:(sec 5.) in
  (match Leases.Lease.deadline finite with
  | Some t -> Alcotest.(check (float 1e-9)) "granted_at + term" 15. (Time.to_sec t)
  | None -> Alcotest.fail "finite grant");
  Alcotest.(check bool) "infinite grant" true
    (Leases.Lease.is_never (Leases.Lease.server_expiry Leases.Lease.Infinite ~granted_at:(sec 5.)))

let test_client_expiry_shortening () =
  let expiry =
    Leases.Lease.client_expiry (Leases.Lease.term_of_sec 10.) ~received_at:(sec 100.)
      ~transit_allowance:(span 0.0025) ~skew_allowance:(span 0.1)
  in
  (match Leases.Lease.deadline expiry with
  | Some t ->
    Alcotest.(check (float 1e-9)) "t_c = term - transit - eps" (100. +. 10. -. 0.0025 -. 0.1)
      (Time.to_sec t)
  | None -> Alcotest.fail "finite");
  (* a term shorter than the allowances is already expired on arrival:
     the paper's "non-zero t_s, zero t_c" *)
  let tiny =
    Leases.Lease.client_expiry (Leases.Lease.term_of_sec 0.05) ~received_at:(sec 100.)
      ~transit_allowance:(span 0.0025) ~skew_allowance:(span 0.1)
  in
  match Leases.Lease.deadline tiny with
  | Some t ->
    Alcotest.(check (float 1e-9)) "clamped to receive instant" 100. (Time.to_sec t);
    Alcotest.(check bool) "immediately expired" true
      (Leases.Lease.expired (Leases.Lease.at t) ~now:(sec 100.))
  | None -> Alcotest.fail "finite"

let test_client_never_outlives_server () =
  (* the safety inequality behind leases: for any finite grant, the client
     deadline precedes the server deadline by transit + skew *)
  List.iter
    (fun term_s ->
      let term = Leases.Lease.term_of_sec term_s in
      let server = Leases.Lease.server_expiry term ~granted_at:(sec 50.) in
      let client =
        (* the grant is received transit later than it was made *)
        Leases.Lease.client_expiry term ~received_at:(sec 50.0025)
          ~transit_allowance:(span 0.0025) ~skew_allowance:(span 0.1)
      in
      match Leases.Lease.deadline server, Leases.Lease.deadline client with
      | Some s, Some c ->
        (* either the client deadline precedes the server's, or the clamp
           made the lease dead on arrival (client deadline = receive
           instant), which opens no trust window *)
        if Time.(s < c) && Time.(sec 50.0025 < c) then
          Alcotest.failf "client outlives server at term %g" term_s
      | _ -> Alcotest.fail "finite grants expected")
    [ 0.; 0.01; 0.5; 1.; 10.; 100. ]

let test_expired_and_max () =
  Alcotest.(check bool) "never not expired" false
    (Leases.Lease.expired Leases.Lease.never ~now:(sec 1e9));
  Alcotest.(check bool) "deadline inclusive" true
    (Leases.Lease.expired (Leases.Lease.at (sec 5.)) ~now:(sec 5.));
  Alcotest.(check bool) "before deadline" false
    (Leases.Lease.expired (Leases.Lease.at (sec 5.)) ~now:(sec 4.999));
  (match
     Leases.Lease.deadline
       (Leases.Lease.expiry_max (Leases.Lease.at (sec 3.)) (Leases.Lease.at (sec 7.)))
   with
  | Some t -> Alcotest.(check (float 1e-9)) "max" 7. (Time.to_sec t)
  | None -> Alcotest.fail "finite max");
  Alcotest.(check bool) "never dominates" true
    (Leases.Lease.is_never (Leases.Lease.expiry_max (Leases.Lease.at (sec 3.)) Leases.Lease.never));
  Alcotest.(check (option (float 1e-9))) "trace seconds" (Some 3.)
    (Leases.Lease.expiry_sec (Leases.Lease.at (sec 3.)));
  Alcotest.(check (option (float 1e-9))) "never has no seconds" None
    (Leases.Lease.expiry_sec Leases.Lease.never)

(* --- Term policies ----------------------------------------------------- *)

let resolve ?tracker policy holders =
  Leases.Term_policy.term_for policy ~tracker ~file:(Vstore.File_id.of_int 0) ~now:(sec 100.)
    ~holders

let test_static_policies () =
  (match resolve Leases.Term_policy.Zero 1 with
  | term -> Alcotest.(check bool) "zero" true (Leases.Lease.term_is_zero term));
  (match resolve (Leases.Term_policy.Fixed (span 10.)) 1 with
  | Leases.Lease.Finite s -> Alcotest.(check (float 1e-9)) "fixed" 10. (Time.Span.to_sec s)
  | Leases.Lease.Infinite -> Alcotest.fail "fixed");
  (match resolve Leases.Term_policy.Infinite 1 with
  | Leases.Lease.Infinite -> ()
  | Leases.Lease.Finite _ -> Alcotest.fail "infinite");
  Alcotest.check_raises "adaptive needs tracker"
    (Invalid_argument "Term_policy.term_for: adaptive policy needs a tracker") (fun () ->
      ignore (resolve (Leases.Term_policy.Adaptive Leases.Term_policy.default_adaptive) 1))

let test_tracker_rates () =
  let tracker = Leases.Term_policy.Tracker.create Leases.Term_policy.default_adaptive in
  let file = Vstore.File_id.of_int 1 in
  (* 100 reads over 100 s at 1/s: EWMA should settle near 1/s *)
  for i = 0 to 99 do
    Leases.Term_policy.Tracker.note_read tracker file ~now:(sec (float_of_int i))
  done;
  let rate = Leases.Term_policy.Tracker.read_rate tracker file ~now:(sec 100.) in
  Alcotest.(check bool) "EWMA read rate near 1/s" true (rate > 0.5 && rate < 1.5);
  Alcotest.(check (float 1e-9)) "no writes" 0.
    (Leases.Term_policy.Tracker.write_rate tracker file ~now:(sec 100.));
  (* rates decay toward zero when the file goes idle *)
  let later = Leases.Term_policy.Tracker.read_rate tracker file ~now:(sec 400.) in
  Alcotest.(check bool) "decays" true (later < rate /. 10.)

let test_adaptive_choices () =
  let adaptive =
    { Leases.Term_policy.default_adaptive with Leases.Term_policy.max_term = span 60. }
  in
  let tracker = Leases.Term_policy.Tracker.create adaptive in
  let read_only = Vstore.File_id.of_int 2 in
  for i = 0 to 49 do
    Leases.Term_policy.Tracker.note_read tracker read_only ~now:(sec (float_of_int i))
  done;
  (match Leases.Term_policy.Tracker.term_for tracker read_only ~now:(sec 50.) ~holders:1 with
  | Leases.Lease.Finite s ->
    Alcotest.(check (float 1e-9)) "read-only gets the max term" 60. (Time.Span.to_sec s)
  | Leases.Lease.Infinite -> Alcotest.fail "finite expected");
  (* write-shared file with alpha <= 1 gets a zero term *)
  let contended = Vstore.File_id.of_int 3 in
  for i = 0 to 49 do
    Leases.Term_policy.Tracker.note_write tracker contended ~now:(sec (float_of_int i));
    if i mod 10 = 0 then
      Leases.Term_policy.Tracker.note_read tracker contended ~now:(sec (float_of_int i))
  done;
  (match Leases.Term_policy.Tracker.term_for tracker contended ~now:(sec 50.) ~holders:30 with
  | term -> Alcotest.(check bool) "contended gets zero" true (Leases.Lease.term_is_zero term));
  (* never-seen file: minimal term (no evidence caching helps) *)
  match Leases.Term_policy.Tracker.term_for tracker (Vstore.File_id.of_int 9) ~now:(sec 50.) ~holders:1 with
  | Leases.Lease.Finite s ->
    Alcotest.(check (float 1e-9)) "unknown file gets min term" 0. (Time.Span.to_sec s)
  | Leases.Lease.Infinite -> Alcotest.fail "finite expected"

(* --- Config ------------------------------------------------------------ *)

let test_config_validation () =
  Leases.Config.validate Leases.Config.default;
  Alcotest.check_raises "installed term must exceed period"
    (Invalid_argument "Config: installed term must exceed the refresh period") (fun () ->
      Leases.Config.validate
        {
          Leases.Config.default with
          Leases.Config.installed =
            Some { Leases.Config.files = [ Vstore.File_id.of_int 0 ]; period = span 10.; term = span 5. };
        })

let test_config_with_term () =
  let zero = Leases.Config.with_term Leases.Config.default Leases.Lease.term_zero in
  (match zero.Leases.Config.term_policy with
  | Leases.Term_policy.Zero -> ()
  | _ -> Alcotest.fail "zero policy");
  let inf = Leases.Config.with_term Leases.Config.default Leases.Lease.Infinite in
  (match inf.Leases.Config.term_policy with
  | Leases.Term_policy.Infinite -> ()
  | _ -> Alcotest.fail "infinite policy");
  match (Leases.Config.with_term Leases.Config.default (Leases.Lease.term_of_sec 7.)).Leases.Config.term_policy with
  | Leases.Term_policy.Fixed s -> Alcotest.(check (float 1e-9)) "fixed 7" 7. (Time.Span.to_sec s)
  | _ -> Alcotest.fail "fixed policy"

(* --- lease table ------------------------------------------------------- *)

(* The table keeps its slots in chunks of file ids, allocated at a chunk's
   first grant.  Reads of files never granted allocate nothing and see no
   holder, wherever they fall: past the directory, in a chunk never
   written, or beside a granted file.  Files on either side of a chunk
   boundary keep their own records, a sweep reaps them in ascending file
   order across chunks, and after a crash's [clear] no record is left and
   grants start afresh. *)
let test_lease_table_chunks () =
  let module T = Leases.Lease_table in
  let file = Vstore.File_id.of_int and host = Host.Host_id.of_int in
  let expiry s = Leases.Lease.at (sec s) in
  let t = T.create () in
  let reaped = ref [] in
  T.set_on_reap t (fun f h _ ->
      reaped := (Vstore.File_id.to_int f, Host.Host_id.to_int h) :: !reaped);
  (* holder 1 on every file until 10 s, holder 2 on the odd ones until 20 s;
     granted in descending file order *)
  let files = [ 253; 254; 255; 256; 257; 258; 511; 512; 100_000 ] in
  let odd = List.filter (fun f -> f mod 2 = 1) files in
  List.iter
    (fun f ->
      T.record t (file f) (host 1) (expiry 10.) ~now:(sec 0.);
      if f mod 2 = 1 then T.record t (file f) (host 2) (expiry 20.) ~now:(sec 0.))
    (List.rev files);
  let holders f ~now = List.map Host.Host_id.to_int (T.live_holders t (file f) ~now:(sec now)) in
  List.iter
    (fun f ->
      Alcotest.(check (list int)) (Printf.sprintf "file %d holders" f)
        (if f mod 2 = 1 then [ 1; 2 ] else [ 1 ])
        (holders f ~now:1.))
    files;
  let occupancy now =
    let { T.files; records; _ } = T.occupancy t ~now:(sec now) in
    (files, records)
  in
  Alcotest.(check (pair int int)) "occupancy"
    (List.length files, List.length files + List.length odd)
    (occupancy 1.);
  let untouched = Array.map file [| 0; 252; 259; 510; 5_000; 99_999; 100_001; 1 lsl 25 |] in
  let now = sec 1. and reads = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to reads do
    for j = 0 to Array.length untouched - 1 do
      let f = untouched.(j) in
      if T.live_count t f ~now <> 0 then
        Alcotest.failf "untouched file %d has a holder" (Vstore.File_id.to_int f);
      if T.fold_live t f ~now ~init:0 ~f:(fun _ _ n -> n + 1) <> 0 then
        Alcotest.failf "untouched file %d folds a record" (Vstore.File_id.to_int f);
      if not (Leases.Lease.is_never (T.live_deadline t f ~now ~init:Leases.Lease.never)) then
        Alcotest.failf "untouched file %d has a deadline" (Vstore.File_id.to_int f)
    done
  done;
  let words = Gc.minor_words () -. before in
  if words > 100. then
    Alcotest.failf "%d reads of untouched files allocated %.0f words"
      (reads * Array.length untouched) words;
  Alcotest.(check bool) "a sweep at 15 s leaves finite expiries" true (T.sweep t ~now:(sec 15.));
  Alcotest.(check (list (pair int int))) "holder 1 reaped in ascending file order"
    (List.map (fun f -> (f, 1)) files)
    (List.rev !reaped);
  Alcotest.(check (pair int int)) "occupancy after the sweep" (List.length odd, List.length odd)
    (occupancy 15.);
  T.clear t;
  Alcotest.(check (pair int int)) "occupancy after a crash" (0, 0) (occupancy 15.);
  List.iter
    (fun f ->
      Alcotest.(check (list int)) (Printf.sprintf "file %d after a crash" f) [] (holders f ~now:15.))
    files;
  Alcotest.(check bool) "nothing left to sweep" false (T.sweep t ~now:(sec 15.));
  T.record t (file 256) (host 3) (expiry 30.) ~now:(sec 16.);
  Alcotest.(check (list int)) "granted afresh" [ 3 ] (holders 256 ~now:16.);
  Alcotest.(check (list int)) "its neighbour stays empty" [] (holders 255 ~now:16.);
  Alcotest.(check (pair int int)) "occupancy after a fresh grant" (1, 1) (occupancy 16.);
  Alcotest.(check (list (pair int int))) "a crash reaps nothing"
    (List.map (fun f -> (f, 1)) files)
    (List.rev !reaped)

let () =
  Alcotest.run "lease-types"
    [
      ( "lease",
        [
          Alcotest.test_case "terms" `Quick test_terms;
          Alcotest.test_case "server expiry" `Quick test_server_expiry;
          Alcotest.test_case "client expiry shortening" `Quick test_client_expiry_shortening;
          Alcotest.test_case "client never outlives server" `Quick test_client_never_outlives_server;
          Alcotest.test_case "expired + max" `Quick test_expired_and_max;
        ] );
      ( "term-policy",
        [
          Alcotest.test_case "static policies" `Quick test_static_policies;
          Alcotest.test_case "tracker rates" `Quick test_tracker_rates;
          Alcotest.test_case "adaptive choices" `Quick test_adaptive_choices;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "with_term" `Quick test_config_with_term;
        ] );
      ("lease table", [ Alcotest.test_case "chunks" `Quick test_lease_table_chunks ]);
    ]
