(* Unit tests for the simtime substrate: time arithmetic, the event queue
   and the discrete-event engine. *)

open Simtime

let sec = Time.of_sec
let span = Time.Span.of_sec

(* --- Time ----------------------------------------------------------- *)

let test_time_roundtrip () =
  Alcotest.(check int) "us roundtrip" 123_456 (Time.to_us (Time.of_us 123_456));
  Alcotest.(check (float 1e-9)) "sec roundtrip" 1.5 (Time.to_sec (sec 1.5));
  Alcotest.(check (float 1e-9)) "sub-microsecond rounds" 1e-6 (Time.to_sec (Time.of_sec 0.6e-6))

let test_time_ordering () =
  Alcotest.(check bool) "lt" true Time.(sec 1. < sec 2.);
  Alcotest.(check bool) "le refl" true Time.(sec 1. <= sec 1.);
  Alcotest.(check bool) "gt" true Time.(sec 3. > sec 2.);
  Alcotest.(check bool) "not lt self" false Time.(sec 1. < sec 1.);
  Alcotest.(check bool) "min" true (Time.equal (Time.min (sec 1.) (sec 2.)) (sec 1.));
  Alcotest.(check bool) "max" true (Time.equal (Time.max (sec 1.) (sec 2.)) (sec 2.))

let test_time_arith () =
  let t = Time.add (sec 1.) (span 2.) in
  Alcotest.(check (float 1e-9)) "add" 3. (Time.to_sec t);
  Alcotest.(check (float 1e-9)) "diff" 2. (Time.Span.to_sec (Time.diff t (sec 1.)));
  Alcotest.(check (float 1e-9)) "negative diff" (-2.) (Time.Span.to_sec (Time.diff (sec 1.) t))

let test_span_ops () =
  Alcotest.(check (float 1e-9)) "scale" 2.5 (Time.Span.to_sec (Time.Span.scale 2.5 (span 1.)));
  Alcotest.(check (float 1e-9)) "neg" (-1.) (Time.Span.to_sec (Time.Span.neg (span 1.)));
  Alcotest.(check bool) "is_negative" true (Time.Span.is_negative (Time.Span.neg (span 1.)));
  Alcotest.(check (float 1e-9)) "clamp negative" 0.
    (Time.Span.to_sec (Time.Span.clamp_non_negative (Time.Span.neg (span 5.))));
  Alcotest.(check (float 1e-9)) "clamp positive" 5.
    (Time.Span.to_sec (Time.Span.clamp_non_negative (span 5.)));
  Alcotest.(check (float 1e-9)) "ms" 1.5 (Time.Span.to_ms (Time.Span.of_ms 1.5))

let test_of_sec_rejects_garbage () =
  let rejects label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  rejects "nan instant" (fun () -> Time.of_sec Float.nan);
  rejects "inf instant" (fun () -> Time.of_sec Float.infinity);
  rejects "-inf instant" (fun () -> Time.of_sec Float.neg_infinity);
  rejects "overflowing instant" (fun () -> Time.of_sec 1e300);
  rejects "underflowing instant" (fun () -> Time.of_sec (-1e300));
  rejects "nan span" (fun () -> Time.Span.of_sec Float.nan);
  rejects "nan ms span" (fun () -> Time.Span.of_ms Float.nan);
  (* the whole representable range stays accepted *)
  Alcotest.(check (float 1e-3)) "large but in-range" 1e12 (Time.to_sec (Time.of_sec 1e12));
  Alcotest.(check (float 1e-3)) "large negative span" (-1e12)
    (Time.Span.to_sec (Time.Span.of_sec (-1e12)))

(* --- Event queue ------------------------------------------------------ *)

let test_queue_ordering () =
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~at:(sec 3.) "c");
  ignore (Event_queue.push q ~at:(sec 1.) "a");
  ignore (Event_queue.push q ~at:(sec 2.) "b");
  let pop () = Option.map snd (Event_queue.pop q) in
  Alcotest.(check (option string)) "first" (Some "a") (pop ());
  Alcotest.(check (option string)) "second" (Some "b") (pop ());
  Alcotest.(check (option string)) "third" (Some "c") (pop ());
  Alcotest.(check (option string)) "empty" None (pop ())

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  List.iter (fun v -> ignore (Event_queue.push q ~at:(sec 1.) v)) [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> Option.get (Option.map snd (Event_queue.pop q))) in
  Alcotest.(check (list string)) "insertion order preserved on ties" [ "x"; "y"; "z" ] order

let test_queue_cancel () =
  let q = Event_queue.create () in
  let _a = Event_queue.push q ~at:(sec 1.) "a" in
  let b = Event_queue.push q ~at:(sec 2.) "b" in
  let _c = Event_queue.push q ~at:(sec 3.) "c" in
  Event_queue.cancel b;
  Alcotest.(check bool) "cancelled flag" true (Event_queue.cancelled b);
  Alcotest.(check int) "live count excludes cancelled" 2 (Event_queue.length q);
  let order = List.init 2 (fun _ -> Option.get (Option.map snd (Event_queue.pop q))) in
  Alcotest.(check (list string)) "cancelled skipped" [ "a"; "c" ] order;
  (* double cancel is a no-op *)
  Event_queue.cancel b;
  Alcotest.(check int) "still empty" 0 (Event_queue.length q)

let test_queue_peek () =
  let q = Event_queue.create () in
  Alcotest.(check (option reject)) "peek empty"
    None
    (Option.map (fun _ -> ()) (Event_queue.peek_time q));
  let a = Event_queue.push q ~at:(sec 1.) "a" in
  ignore (Event_queue.push q ~at:(sec 2.) "b");
  Alcotest.(check (float 1e-9)) "peek earliest" 1. (Time.to_sec (Option.get (Event_queue.peek_time q)));
  Event_queue.cancel a;
  Alcotest.(check (float 1e-9)) "peek skips cancelled" 2.
    (Time.to_sec (Option.get (Event_queue.peek_time q)))

let test_queue_length_accounting () =
  (* length is a maintained counter now, not a recount: pin its value
     across every cancel/cancel-again/pop transition *)
  let q = Event_queue.create () in
  let a = Event_queue.push q ~at:(sec 1.) "a" in
  let b = Event_queue.push q ~at:(sec 2.) "b" in
  let c = Event_queue.push q ~at:(sec 3.) "c" in
  Alcotest.(check int) "three live" 3 (Event_queue.length q);
  Event_queue.cancel b;
  Alcotest.(check int) "cancel decrements" 2 (Event_queue.length q);
  Event_queue.cancel b;
  Alcotest.(check int) "cancel again is a no-op" 2 (Event_queue.length q);
  ignore (Event_queue.pop q);
  Alcotest.(check int) "pop decrements" 1 (Event_queue.length q);
  Event_queue.cancel a;
  Alcotest.(check int) "cancelling a popped handle is a no-op" 1 (Event_queue.length q);
  Alcotest.(check bool) "popped is not cancelled" false (Event_queue.cancelled a);
  ignore (Event_queue.pop q);
  Alcotest.(check int) "empty" 0 (Event_queue.length q);
  Alcotest.(check bool) "is_empty" true (Event_queue.is_empty q);
  Event_queue.cancel c;
  Alcotest.(check int) "still empty after late cancel" 0 (Event_queue.length q)

let test_queue_compaction_bounded () =
  (* the anticipatory-renewal pattern: every timer is cancelled and
     replaced before it fires.  Eager cancellation must keep heap
     occupancy exactly at the live population. *)
  let q = Event_queue.create () in
  let live = 256 in
  let handles = Array.init live (fun i -> Event_queue.push q ~at:(Time.of_us i) i) in
  let max_slots = ref 0 in
  for i = 0 to 20_000 - 1 do
    let slot = i mod live in
    Event_queue.cancel handles.(slot);
    handles.(slot) <- Event_queue.push q ~at:(Time.of_us (live + i)) i;
    if Event_queue.length q > !max_slots then max_slots := Event_queue.length q
  done;
  Alcotest.(check int) "live count exact under churn" live (Event_queue.length q);
  Alcotest.(check int) "heap holds exactly the live events" live !max_slots;
  let rec drain n = match Event_queue.pop q with Some _ -> drain (n + 1) | None -> n in
  Alcotest.(check int) "exactly the live events pop" live (drain 0)

let test_queue_compaction_releases_payloads () =
  (* The original tombstone design pinned every cancelled payload until a
     later compaction pass happened to run (and skipped the clearing loop
     entirely when zero live entries survived).  Eager cancellation must
     release cancelled payloads immediately: after cancelling everything,
     the heap is empty and the payloads are collectable with no pop. *)
  let q = Event_queue.create () in
  let n = 24 in
  let w = Weak.create n in
  let handles =
    Array.init n (fun i ->
        let payload = ref i in
        Weak.set w i (Some payload);
        Event_queue.push q ~at:(Time.of_us i) payload)
  in
  Array.iter Event_queue.cancel handles;
  Alcotest.(check int) "cancel-all empties the heap immediately" 0
    (Event_queue.length q);
  (match Event_queue.pop q with
  | None -> ()
  | Some _ -> Alcotest.fail "nothing live should pop");
  Gc.full_major ();
  for i = 0 to n - 1 do
    match Weak.get w i with
    | Some _ -> Alcotest.failf "payload %d still pinned after cancellation" i
    | None -> ()
  done;
  (* partial cancellation: the heap tracks the live population exactly *)
  let handles = Array.init 64 (fun i -> Event_queue.push q ~at:(Time.of_us i) (ref i)) in
  for i = 16 to 63 do
    Event_queue.cancel handles.(i)
  done;
  Alcotest.(check int) "cancelled entries leave no slot behind" 16
    (Event_queue.length q);
  (match Event_queue.pop q with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a live event");
  Alcotest.(check int) "pop shrinks the heap by one" 15 (Event_queue.length q)

let test_queue_releases_popped_payloads () =
  (* A slot an entry leaves is refilled with the queue's vacant entry,
     so popping everything pins nothing, although the arrays keep their
     capacity for the next push. *)
  let q = Event_queue.create () in
  let n = 24 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set w i (Some payload);
    ignore (Event_queue.push q ~at:(Time.of_us i) payload)
  done;
  let rec drain k = match Event_queue.pop q with Some _ -> drain (k + 1) | None -> k in
  Alcotest.(check int) "every event pops" n (drain 0);
  Gc.full_major ();
  for i = 0 to n - 1 do
    match Weak.get w i with
    | Some _ -> Alcotest.failf "payload %d still pinned after it popped" i
    | None -> ()
  done;
  ignore (Event_queue.push q ~at:(Time.of_us n) (ref n));
  Alcotest.(check int) "the emptied queue takes pushes" 1 (Event_queue.length q)

let test_queue_interleaved () =
  (* push/pop interleaving never violates ordering *)
  let q = Event_queue.create () in
  let popped = ref [] in
  ignore (Event_queue.push q ~at:(sec 5.) 5);
  ignore (Event_queue.push q ~at:(sec 1.) 1);
  (match Event_queue.pop q with
  | Some (_, v) -> popped := v :: !popped
  | None -> Alcotest.fail "expected an event");
  ignore (Event_queue.push q ~at:(sec 2.) 2);
  ignore (Event_queue.push q ~at:(sec 0.5) 0);
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
      popped := v :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "order across interleaving" [ 1; 0; 2; 5 ] (List.rev !popped)

(* --- Engine ----------------------------------------------------------- *)

let test_engine_daemon_events_do_not_extend_run () =
  (* Background maintenance (the server's lease sweep) is scheduled as
     daemon events: they fire normally while real work remains ahead of
     them, but a run-to-quiescence never stays alive for them alone — so a
     periodic sweep cannot drag a run's end time past its last real event. *)
  let engine = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule_at engine (sec 1.) (fun () -> fired := "work" :: !fired));
  ignore (Engine.schedule_at engine ~daemon:true (sec 0.5) (fun () -> fired := "d1" :: !fired));
  ignore (Engine.schedule_at engine ~daemon:true (sec 2.) (fun () -> fired := "d2" :: !fired));
  Engine.run engine;
  Alcotest.(check (list string))
    "daemon fires only ahead of real work" [ "d1"; "work" ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "run ends on the last non-daemon event" 1.
    (Time.to_sec (Engine.now engine));
  Alcotest.(check int) "the tail daemon event stays queued" 1 (Engine.pending engine);
  (* a bounded run executes the remaining daemon event like any other *)
  Engine.run ~until:(sec 3.) engine;
  Alcotest.(check (list string))
    "bounded run executes daemons" [ "d1"; "work"; "d2" ] (List.rev !fired)

let test_engine_runs_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_at engine (sec 2.) (fun () -> log := "b" :: !log));
  ignore (Engine.schedule_at engine (sec 1.) (fun () -> log := "a" :: !log));
  ignore (Engine.schedule_at engine (sec 3.) (fun () -> log := "c" :: !log));
  Engine.run engine;
  Alcotest.(check (list string)) "in order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock lands on last event" 3. (Time.to_sec (Engine.now engine))

let test_engine_now_inside_callback () =
  let engine = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.schedule_at engine (sec 1.5) (fun () -> seen := Engine.now engine));
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "now = scheduled instant" 1.5 (Time.to_sec !seen)

let test_engine_schedule_from_callback () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule_at engine (sec 1.) (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule_after engine (span 1.) (fun () -> log := "inner" :: !log))));
  Engine.run engine;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "final time" 2. (Time.to_sec (Engine.now engine))

let test_engine_until () =
  let engine = Engine.create () in
  let ran = ref [] in
  ignore (Engine.schedule_at engine (sec 1.) (fun () -> ran := 1 :: !ran));
  ignore (Engine.schedule_at engine (sec 5.) (fun () -> ran := 5 :: !ran));
  Engine.run ~until:(sec 3.) engine;
  Alcotest.(check (list int)) "only events up to the bound" [ 1 ] (List.rev !ran);
  Alcotest.(check (float 1e-9)) "time parked at the bound" 3. (Time.to_sec (Engine.now engine));
  Alcotest.(check int) "later event still queued" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "resumes" [ 1; 5 ] (List.rev !ran)

let test_engine_cancel () =
  let engine = Engine.create () in
  let ran = ref false in
  let handle = Engine.schedule_at engine (sec 1.) (fun () -> ran := true) in
  Engine.cancel handle;
  Engine.run engine;
  Alcotest.(check bool) "cancelled callback never runs" false !ran

let test_engine_rejects_past () =
  let engine = Engine.create () in
  ignore (Engine.schedule_at engine (sec 2.) (fun () -> ()));
  Engine.run engine;
  Alcotest.check_raises "scheduling in the past"
    (Invalid_argument "Engine.schedule_at: 1.000000s is in the past (now 2.000000s)")
    (fun () -> ignore (Engine.schedule_at engine (sec 1.) (fun () -> ())));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_after: negative delay -1.000000s")
    (fun () -> ignore (Engine.schedule_after engine (Time.Span.neg (span 1.)) (fun () -> ())))

let test_engine_same_instant_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  List.iter
    (fun i -> ignore (Engine.schedule_at engine (sec 1.) (fun () -> log := i :: !log)))
    [ 1; 2; 3; 4 ];
  Engine.run engine;
  Alcotest.(check (list int)) "same-instant callbacks run FIFO" [ 1; 2; 3; 4 ] (List.rev !log)

let test_engine_step () =
  let engine = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule_at engine (sec 1.) (fun () -> incr count));
  ignore (Engine.schedule_at engine (sec 2.) (fun () -> incr count));
  Alcotest.(check bool) "step runs one" true (Engine.step engine);
  Alcotest.(check int) "one ran" 1 !count;
  Alcotest.(check bool) "second step" true (Engine.step engine);
  Alcotest.(check bool) "exhausted" false (Engine.step engine)

(* --- Lanes ------------------------------------------------------------- *)

let test_lane_orders_with_heap () =
  (* heap and lane events fire by (at, seq): ties go to whichever was
     scheduled first, whichever structure holds it *)
  let engine = Engine.create () in
  let log = ref [] in
  let lane = Engine.lane engine (fun _ name -> log := name :: !log) in
  ignore (Engine.schedule_at engine (sec 1.) (fun () -> log := "heap1" :: !log));
  Engine.lane_push lane (sec 1.) "lane1";
  Engine.lane_push lane (sec 2.) "lane2";
  ignore (Engine.schedule_at engine (sec 2.) (fun () -> log := "heap2" :: !log));
  ignore (Engine.schedule_at engine (sec 0.5) (fun () -> log := "heap0" :: !log));
  Alcotest.(check int) "pending counts lane entries" 5 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list string))
    "(at, seq) order across heap and lane"
    [ "heap0"; "heap1"; "lane1"; "lane2"; "heap2" ]
    (List.rev !log);
  Alcotest.(check int) "drained" 0 (Engine.pending engine)

let test_lane_handler_pushes_next () =
  (* the handler gets its lane, so a cursor can re-arm itself; a bounded
     run stops before a lane entry past the limit *)
  let engine = Engine.create () in
  let fired = ref [] in
  let lane =
    Engine.lane engine (fun lane i ->
        fired := i :: !fired;
        if i < 4 then Engine.lane_push lane (sec (float_of_int (i + 1))) (i + 1))
  in
  Engine.lane_push lane (sec 0.) 0;
  Engine.run ~until:(sec 2.5) engine;
  Alcotest.(check (list int)) "up to the limit" [ 0; 1; 2 ] (List.rev !fired);
  Alcotest.(check int) "the next entry stays queued" 1 (Engine.pending engine);
  Alcotest.(check (float 1e-9)) "parked at the limit" 2.5 (Time.to_sec (Engine.now engine));
  Engine.run engine;
  Alcotest.(check (list int)) "unbounded run drains the lane" [ 0; 1; 2; 3; 4 ] (List.rev !fired)

let test_lane_rejects_bad_instants () =
  let engine = Engine.create () in
  let lane = Engine.lane engine (fun _ () -> ()) in
  ignore (Engine.schedule_at engine (sec 2.) (fun () -> ()));
  Engine.run engine;
  Alcotest.check_raises "an instant before now"
    (Invalid_argument "Engine.lane_push: 1.000000s is before now 2.000000s") (fun () ->
      Engine.lane_push lane (sec 1.) ());
  Engine.lane_push lane (sec 5.) ();
  Alcotest.check_raises "an instant before the lane's tail"
    (Invalid_argument "Engine.lane_push: 4.000000s is before the lane's tail 5.000000s")
    (fun () -> Engine.lane_push lane (sec 4.) ());
  Alcotest.(check int) "a refused push leaves nothing queued" 1 (Engine.pending engine);
  (* a tie with the tail is in order *)
  Engine.lane_push lane (sec 5.) ();
  Alcotest.(check int) "a tie is accepted" 2 (Engine.pending engine)

let test_lane_releases_fired_items () =
  (* A fired slot is cleared: once the lane has fired its entries, their
     items are collectable although the ring keeps its capacity. *)
  let engine = Engine.create () in
  let n = 40 in
  let w = Weak.create n in
  let sum = ref 0 in
  let lane = Engine.lane engine (fun _ r -> sum := !sum + !r) in
  for i = 0 to n - 1 do
    let item = ref i in
    Weak.set w i (Some item);
    Engine.lane_push lane (Time.of_us i) item
  done;
  Engine.run engine;
  Alcotest.(check int) "every item fired" (n * (n - 1) / 2) !sum;
  Gc.full_major ();
  for i = 0 to n - 1 do
    match Weak.get w i with
    | Some _ -> Alcotest.failf "item %d still reachable after it fired" i
    | None -> ()
  done;
  (* the lane keeps working after it emptied *)
  Engine.lane_push lane (Time.of_us n) (ref 1);
  Engine.run engine;
  Alcotest.(check int) "reused" ((n * (n - 1) / 2) + 1) !sum

let () =
  Alcotest.run "simtime"
    [
      ( "time",
        [
          Alcotest.test_case "roundtrip" `Quick test_time_roundtrip;
          Alcotest.test_case "ordering" `Quick test_time_ordering;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
          Alcotest.test_case "span ops" `Quick test_span_ops;
          Alcotest.test_case "of_sec rejects garbage" `Quick test_of_sec_rejects_garbage;
        ] );
      ( "event-queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_queue_cancel;
          Alcotest.test_case "peek" `Quick test_queue_peek;
          Alcotest.test_case "length accounting" `Quick test_queue_length_accounting;
          Alcotest.test_case "compaction bounded" `Quick test_queue_compaction_bounded;
          Alcotest.test_case "compaction releases payloads" `Quick
            test_queue_compaction_releases_payloads;
          Alcotest.test_case "popped payloads released" `Quick test_queue_releases_popped_payloads;
          Alcotest.test_case "interleaved" `Quick test_queue_interleaved;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "daemon events do not extend a run" `Quick
            test_engine_daemon_events_do_not_extend_run;
          Alcotest.test_case "now inside callback" `Quick test_engine_now_inside_callback;
          Alcotest.test_case "schedule from callback" `Quick test_engine_schedule_from_callback;
          Alcotest.test_case "bounded run" `Quick test_engine_until;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "same-instant fifo" `Quick test_engine_same_instant_fifo;
          Alcotest.test_case "step" `Quick test_engine_step;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "ordered with the heap" `Quick test_lane_orders_with_heap;
          Alcotest.test_case "handler pushes the next entry" `Quick test_lane_handler_pushes_next;
          Alcotest.test_case "bad instants refused" `Quick test_lane_rejects_bad_instants;
          Alcotest.test_case "fired items released" `Quick test_lane_releases_fired_items;
        ] );
    ]
