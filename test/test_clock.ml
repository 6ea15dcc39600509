(* Unit tests for per-host clocks: drift, offset, steps, and local-time
   scheduling — the machinery Section 5's fault analysis rests on. *)

open Simtime

let sec = Time.of_sec
let span = Time.Span.of_sec

let advance_to engine t =
  ignore (Engine.schedule_at engine t (fun () -> ()));
  Engine.run engine

let test_perfect_clock () =
  let engine = Engine.create () in
  let clock = Clock.create engine () in
  advance_to engine (sec 5.);
  Alcotest.(check (float 1e-9)) "tracks engine time" 5. (Time.to_sec (Clock.now clock))

let test_offset () =
  let engine = Engine.create () in
  let clock = Clock.create engine ~offset:(span 2.) () in
  advance_to engine (sec 3.);
  Alcotest.(check (float 1e-9)) "offset added" 5. (Time.to_sec (Clock.now clock))

let test_drift () =
  let engine = Engine.create () in
  let fast = Clock.create engine ~drift:0.1 () in
  let slow = Clock.create engine ~drift:(-0.1) () in
  advance_to engine (sec 10.);
  Alcotest.(check (float 1e-5)) "fast clock" 11. (Time.to_sec (Clock.now fast));
  Alcotest.(check (float 1e-5)) "slow clock" 9. (Time.to_sec (Clock.now slow));
  Alcotest.(check (float 1e-9)) "drift accessor" 0.1 (Clock.drift fast)

let test_drift_change_continuity () =
  let engine = Engine.create () in
  let clock = Clock.create engine ~drift:0.5 () in
  advance_to engine (sec 4.);
  let before = Clock.now clock in
  Clock.set_drift clock 0.;
  Alcotest.(check (float 1e-6)) "reading continuous across rate change"
    (Time.to_sec before) (Time.to_sec (Clock.now clock));
  advance_to engine (sec 6.);
  (* 6 at rate 1.5 = 9, wait: first 4 s at 1.5 = 6, then 2 s at 1.0 = 2 *)
  Alcotest.(check (float 1e-5)) "piecewise linear" 8. (Time.to_sec (Clock.now clock))

let test_step () =
  let engine = Engine.create () in
  let clock = Clock.create engine () in
  advance_to engine (sec 1.);
  Clock.step clock (span 5.);
  Alcotest.(check (float 1e-9)) "jump forward" 6. (Time.to_sec (Clock.now clock));
  Clock.step clock (Time.Span.neg (span 2.));
  Alcotest.(check (float 1e-9)) "jump backward" 4. (Time.to_sec (Clock.now clock))

let test_engine_time_of_local () =
  let engine = Engine.create () in
  let clock = Clock.create engine ~drift:1.0 () in
  (* rate 2: local 10 is engine 5 *)
  Alcotest.(check (float 1e-6)) "inverse mapping" 5.
    (Time.to_sec (Clock.engine_time_of_local clock (sec 10.)));
  advance_to engine (sec 3.);
  (* local now = 6; a local past target maps to the current engine time *)
  Alcotest.(check (float 1e-6)) "past target clamps to now" 3.
    (Time.to_sec (Clock.engine_time_of_local clock (sec 2.)))

let test_schedule_at_local () =
  let engine = Engine.create () in
  let clock = Clock.create engine ~drift:(-0.5) () in
  (* rate 0.5: local 2 happens at engine 4 *)
  let fired_at = ref Time.zero in
  ignore (Clock.schedule_at_local clock (sec 2.) (fun () -> fired_at := Engine.now engine));
  Engine.run engine;
  Alcotest.(check (float 1e-5)) "fires at the right engine instant" 4. (Time.to_sec !fired_at)

(* The drift-faithful timer contract: a timer armed under one rate must
   track later rate changes in both directions. *)

let test_timer_tracks_slowdown () =
  let engine = Engine.create () in
  let clock = Clock.create engine () in
  let fired_at = ref Time.zero in
  ignore (Clock.schedule_at_local clock (sec 10.) (fun () -> fired_at := Engine.now engine));
  (* Slow to rate 0.5 at engine 4 (local 4): the remaining 6 local seconds
     now take 12 engine seconds, so the timer must fire at engine 16, not
     at the originally computed engine 10. *)
  ignore (Engine.schedule_at engine (sec 4.) (fun () -> Clock.set_drift clock (-0.5)));
  Engine.run engine;
  Alcotest.(check (float 1e-5)) "re-armed after slowdown" 16. (Time.to_sec !fired_at)

let test_timer_tracks_speedup () =
  let engine = Engine.create () in
  let clock = Clock.create engine () in
  let fired_at = ref Time.zero in
  ignore (Clock.schedule_at_local clock (sec 10.) (fun () -> fired_at := Engine.now engine));
  (* Speed up to rate 2 at engine 4: remaining 6 local seconds take 3
     engine seconds; firing at the stale engine 10 would be 3 s late. *)
  ignore (Engine.schedule_at engine (sec 4.) (fun () -> Clock.set_drift clock 1.0));
  Engine.run engine;
  Alcotest.(check (float 1e-5)) "re-armed after speedup" 7. (Time.to_sec !fired_at)

let test_timer_tracks_backward_step () =
  let engine = Engine.create () in
  let clock = Clock.create engine () in
  let fired_at = ref Time.zero in
  ignore (Clock.schedule_at_local clock (sec 10.) (fun () -> fired_at := Engine.now engine));
  (* Step the clock back 5 s at engine 4: local 10 is now 11 engine
     seconds away. *)
  ignore (Engine.schedule_at engine (sec 4.) (fun () -> Clock.step clock (Time.Span.neg (span 5.))));
  Engine.run engine;
  Alcotest.(check (float 1e-5)) "re-armed after backward step" 15. (Time.to_sec !fired_at)

(* A drift change re-arms the outstanding timers in their table's bucket
   order, which sets the engine sequence numbers and so the order of
   timers due at one instant.  The table is a 16-bucket stdlib-ordered
   hash table, created with the clock's first timer: twelve timers armed
   in id order at one deadline fire, after the change, in the order a
   stdlib [Hashtbl.create 16] iterates their ids. *)
let test_rearm_order () =
  let engine = Engine.create () in
  let clock = Clock.create engine () in
  Alcotest.(check int) "no timer yet" 0 (Clock.pending_local_timers clock);
  let n = 12 in
  let fired = ref [] in
  for id = 0 to n - 1 do
    ignore (Clock.schedule_at_local clock (sec 10.) (fun () -> fired := id :: !fired))
  done;
  ignore (Engine.schedule_at engine (sec 4.) (fun () -> Clock.set_drift clock 0.5));
  Engine.run engine;
  let reference = Hashtbl.create 16 in
  for id = 0 to n - 1 do
    Hashtbl.replace reference id ()
  done;
  let table_order = Hashtbl.fold (fun id () acc -> id :: acc) reference [] |> List.rev in
  Alcotest.(check (list int)) "fired in table order" table_order (List.rev !fired);
  Alcotest.(check bool) "not id order" true (table_order <> List.init n Fun.id);
  Alcotest.(check int) "all fired" 0 (Clock.pending_local_timers clock)

let test_timer_forward_step_fires_immediately () =
  let engine = Engine.create () in
  let clock = Clock.create engine () in
  let fired_at = ref Time.zero in
  ignore (Clock.schedule_at_local clock (sec 10.) (fun () -> fired_at := Engine.now engine));
  (* Step past the deadline at engine 4: the local deadline has been
     reached, so the timer fires there instead of waiting for engine 10. *)
  ignore (Engine.schedule_at engine (sec 4.) (fun () -> Clock.step clock (span 7.)));
  Engine.run engine;
  Alcotest.(check (float 1e-5)) "fires on the step" 4. (Time.to_sec !fired_at)

let test_cancel_timer () =
  let engine = Engine.create () in
  let clock = Clock.create engine () in
  let fired = ref false in
  let tm = Clock.schedule_at_local clock (sec 5.) (fun () -> fired := true) in
  Alcotest.(check int) "timer pending" 1 (Clock.pending_local_timers clock);
  Clock.cancel_timer tm;
  Clock.cancel_timer tm;
  (* idempotent *)
  Alcotest.(check int) "no timers pending" 0 (Clock.pending_local_timers clock);
  advance_to engine (sec 10.);
  Alcotest.(check bool) "never fires" false !fired

let test_timer_cleared_after_fire () =
  let engine = Engine.create () in
  let clock = Clock.create engine ~drift:0.25 () in
  let fired = ref 0 in
  ignore (Clock.schedule_at_local clock (sec 5.) (fun () -> incr fired));
  ignore (Engine.schedule_at engine (sec 1.) (fun () -> Clock.set_drift clock (-0.25)));
  ignore (Engine.schedule_at engine (sec 2.) (fun () -> Clock.set_drift clock 0.));
  Engine.run engine;
  Alcotest.(check int) "fires exactly once" 1 !fired;
  Alcotest.(check int) "table drained" 0 (Clock.pending_local_timers clock)

let test_invalid_drift () =
  let engine = Engine.create () in
  Alcotest.check_raises "create drift <= -1"
    (Invalid_argument "Clock.create: drift must exceed -1") (fun () ->
      ignore (Clock.create engine ~drift:(-1.) ()));
  let clock = Clock.create engine () in
  Alcotest.check_raises "set_drift <= -1"
    (Invalid_argument "Clock.set_drift: drift must exceed -1") (fun () ->
      Clock.set_drift clock (-2.))

let test_non_finite_drift () =
  let engine = Engine.create () in
  List.iter
    (fun drift ->
      Alcotest.check_raises
        (Printf.sprintf "create drift %g" drift)
        (Invalid_argument "Clock.create: drift must be finite") (fun () ->
          ignore (Clock.create engine ~drift ())))
    [ Float.nan; Float.infinity ];
  let clock = Clock.create engine ~drift:0.5 () in
  List.iter
    (fun drift ->
      Alcotest.check_raises
        (Printf.sprintf "set_drift %g" drift)
        (Invalid_argument "Clock.set_drift: drift must be finite") (fun () ->
          Clock.set_drift clock drift))
    [ Float.nan; Float.infinity ];
  (* a refused rate leaves the clock running at its old one *)
  Alcotest.(check (float 0.)) "rate kept" 0.5 (Clock.drift clock);
  ignore (Engine.schedule_at engine (sec 2.) (fun () -> ()));
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "still advancing" 3. (Time.to_sec (Clock.now clock))

let () =
  Alcotest.run "clock"
    [
      ( "clock",
        [
          Alcotest.test_case "perfect" `Quick test_perfect_clock;
          Alcotest.test_case "offset" `Quick test_offset;
          Alcotest.test_case "drift" `Quick test_drift;
          Alcotest.test_case "drift change continuity" `Quick test_drift_change_continuity;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "inverse mapping" `Quick test_engine_time_of_local;
          Alcotest.test_case "schedule at local" `Quick test_schedule_at_local;
          Alcotest.test_case "timer tracks slowdown" `Quick test_timer_tracks_slowdown;
          Alcotest.test_case "timer tracks speedup" `Quick test_timer_tracks_speedup;
          Alcotest.test_case "timer tracks backward step" `Quick test_timer_tracks_backward_step;
          Alcotest.test_case "timer fires on forward step" `Quick
            test_timer_forward_step_fires_immediately;
          Alcotest.test_case "re-arm order" `Quick test_rearm_order;
          Alcotest.test_case "cancel timer" `Quick test_cancel_timer;
          Alcotest.test_case "timer cleared after fire" `Quick test_timer_cleared_after_fire;
          Alcotest.test_case "invalid drift" `Quick test_invalid_drift;
          Alcotest.test_case "non-finite drift" `Quick test_non_finite_drift;
        ] );
    ]
