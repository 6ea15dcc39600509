(* Unit tests for the simulated network: delivery timing, loss, partitions,
   liveness filtering and multicast accounting. *)

open Simtime

let sec = Time.of_sec
let ms = Time.Span.of_ms

let host = Host.Host_id.of_int

(* A standard two-host rig: m_prop = 0.5 ms, m_proc = 1 ms, so transit is
   2.5 ms and the unicast RTT is 5 ms. *)
let rig ?liveness ?partition ?rng ?loss () =
  let engine = Engine.create () in
  let net =
    Netsim.Net.create engine ?liveness ?partition ?rng ?loss ~prop_delay:(ms 0.5)
      ~proc_delay:(ms 1.) ()
  in
  (engine, net)

let test_delivery_timing () =
  let engine, net = rig () in
  let delivered_at = ref Time.zero in
  let received = ref "" in
  Netsim.Net.register net (host 1) (fun e ->
      delivered_at := Engine.now engine;
      received := e.Netsim.Net.payload);
  ignore (Engine.schedule_at engine (sec 1.) (fun () ->
      Netsim.Net.send net ~src:(host 0) ~dst:(host 1) "hello"));
  Engine.run engine;
  Alcotest.(check string) "payload" "hello" !received;
  Alcotest.(check (float 1e-7)) "transit = proc + prop + proc" 1.0025 (Time.to_sec !delivered_at);
  Alcotest.(check (float 1e-9)) "unicast rtt" 0.005
    (Time.Span.to_sec (Netsim.Net.unicast_rtt net))

let test_envelope_addressing () =
  let engine, net = rig () in
  let src = ref (host 9) in
  Netsim.Net.register net (host 2) (fun e -> src := e.Netsim.Net.src);
  Netsim.Net.send net ~src:(host 7) ~dst:(host 2) ();
  Engine.run engine;
  Alcotest.(check int) "src" 7 (Host.Host_id.to_int !src)

let test_unregistered_destination () =
  let engine, net = rig () in
  Netsim.Net.send net ~src:(host 0) ~dst:(host 1) ();
  Engine.run engine;
  Alcotest.(check int) "counted as down-drop" 1 (Netsim.Net.dropped_down net);
  Alcotest.(check int) "no delivery" 0 (Netsim.Net.deliveries net)

let test_loss () =
  let rng = Prng.Splitmix.create ~seed:1L in
  let engine, net = rig ~rng ~loss:0.5 () in
  let received = ref 0 in
  Netsim.Net.register net (host 1) (fun _ -> incr received);
  for _ = 1 to 1000 do
    Netsim.Net.send net ~src:(host 0) ~dst:(host 1) ()
  done;
  Engine.run engine;
  Alcotest.(check int) "sends counted" 1000 (Netsim.Net.sent net);
  Alcotest.(check int) "drops + deliveries = sends" 1000
    (Netsim.Net.dropped_loss net + Netsim.Net.deliveries net);
  if !received < 400 || !received > 600 then
    Alcotest.failf "loss rate off: %d/1000 delivered" !received

let test_loss_requires_rng () =
  let engine = Engine.create () in
  Alcotest.check_raises "loss without rng"
    (Invalid_argument "Net.create: positive loss requires an rng") (fun () ->
      ignore
        (Netsim.Net.create engine ~loss:0.1 ~prop_delay:(ms 1.) ~proc_delay:(ms 1.) () : unit Netsim.Net.t))

(* NaN fails both range compares, so a [loss < 0. || loss > 1.] check
   lets it through, and it then drops nothing. *)
let test_nan_loss_refused () =
  let engine = Engine.create () in
  let rng = Prng.Splitmix.create ~seed:1L in
  Alcotest.check_raises "NaN loss" (Invalid_argument "Net.create: loss must be in [0, 1]")
    (fun () ->
      ignore
        (Netsim.Net.create engine ~rng ~loss:Float.nan ~prop_delay:(ms 1.) ~proc_delay:(ms 1.) ()
          : unit Netsim.Net.t))

let test_partition_blocks () =
  let partition = Netsim.Partition.create () in
  let engine, net = rig ~partition () in
  let received = ref 0 in
  Netsim.Net.register net (host 1) (fun _ -> incr received);
  Netsim.Partition.isolate partition [ host 1 ];
  Netsim.Net.send net ~src:(host 0) ~dst:(host 1) ();
  Engine.run engine;
  Alcotest.(check int) "blocked" 0 !received;
  Alcotest.(check int) "partition drop counted" 1 (Netsim.Net.dropped_partition net);
  Netsim.Partition.heal partition;
  Netsim.Net.send net ~src:(host 0) ~dst:(host 1) ();
  Engine.run engine;
  Alcotest.(check int) "healed" 1 !received

let test_partition_groups () =
  let p = Netsim.Partition.create () in
  Alcotest.(check bool) "default connected" true (Netsim.Partition.connected p (host 0) (host 1));
  Netsim.Partition.isolate p [ host 1; host 2 ];
  Alcotest.(check bool) "islanders see each other" true
    (Netsim.Partition.connected p (host 1) (host 2));
  Alcotest.(check bool) "cut from the rest" false (Netsim.Partition.connected p (host 0) (host 1));
  Netsim.Partition.set_group p (host 3) 7;
  Alcotest.(check int) "explicit group" 7 (Netsim.Partition.group p (host 3));
  Netsim.Partition.heal p;
  Alcotest.(check bool) "heal restores" true (Netsim.Partition.connected p (host 0) (host 3))

let test_partition_checked_at_delivery () =
  (* A message in flight when the partition rises is lost: delivery-time
     semantics. *)
  let partition = Netsim.Partition.create () in
  let engine, net = rig ~partition () in
  let received = ref 0 in
  Netsim.Net.register net (host 1) (fun _ -> incr received);
  ignore (Engine.schedule_at engine (sec 1.) (fun () ->
      Netsim.Net.send net ~src:(host 0) ~dst:(host 1) ();
      (* transit is 2.5 ms; the partition rises 1 ms in *)
      ignore (Engine.schedule_after engine (ms 1.) (fun () ->
          Netsim.Partition.isolate partition [ host 1 ]))));
  Engine.run engine;
  Alcotest.(check int) "in-flight message cut" 0 !received

let test_crashed_receiver () =
  let liveness = Host.Liveness.create () in
  let engine, net = rig ~liveness () in
  let received = ref 0 in
  Netsim.Net.register net (host 1) (fun _ -> incr received);
  Host.Liveness.crash liveness (host 1);
  Netsim.Net.send net ~src:(host 0) ~dst:(host 1) ();
  Engine.run engine;
  Alcotest.(check int) "no delivery to crashed host" 0 !received;
  Alcotest.(check int) "down drop" 1 (Netsim.Net.dropped_down net)

let test_crashed_sender () =
  let liveness = Host.Liveness.create () in
  let engine, net = rig ~liveness () in
  let received = ref 0 in
  Netsim.Net.register net (host 1) (fun _ -> incr received);
  Host.Liveness.crash liveness (host 0);
  Netsim.Net.send net ~src:(host 0) ~dst:(host 1) ();
  Engine.run engine;
  Alcotest.(check int) "crashed host cannot send" 0 !received

let test_multicast () =
  let engine, net = rig () in
  let received = ref [] in
  List.iter
    (fun i -> Netsim.Net.register net (host i) (fun _ -> received := i :: !received))
    [ 1; 2; 3 ];
  Netsim.Net.multicast net ~src:(host 0) ~dsts:[ host 1; host 2; host 3 ] ();
  Engine.run engine;
  Alcotest.(check (list int)) "all recipients" [ 1; 2; 3 ] (List.sort compare !received);
  Alcotest.(check int) "multicast counted once as a send" 1 (Netsim.Net.sent net);
  Alcotest.(check int) "three deliveries" 3 (Netsim.Net.deliveries net)

let test_multicast_down_sender_per_destination () =
  let liveness = Host.Liveness.create () in
  let engine, net = rig ~liveness () in
  List.iter (fun i -> Netsim.Net.register net (host i) (fun _ -> ())) [ 1; 2; 3 ];
  Host.Liveness.crash liveness (host 0);
  Netsim.Net.multicast net ~src:(host 0) ~dsts:[ host 1; host 2; host 3 ] ();
  Engine.run engine;
  Alcotest.(check int) "one send op" 1 (Netsim.Net.sent net);
  Alcotest.(check int) "three attempts" 3 (Netsim.Net.attempts net);
  Alcotest.(check int) "down drops counted per destination" 3 (Netsim.Net.dropped_down net);
  Alcotest.(check int) "no deliveries" 0 (Netsim.Net.deliveries net)

let test_accounting_reconciles () =
  (* every per-destination attempt resolves as exactly one delivery or one
     categorized drop, whatever the failure mix *)
  let liveness = Host.Liveness.create () in
  let partition = Netsim.Partition.create () in
  let rng = Prng.Splitmix.create ~seed:42L in
  let engine, net = rig ~liveness ~partition ~rng ~loss:0.3 () in
  List.iter (fun i -> Netsim.Net.register net (host i) (fun _ -> ())) [ 1; 2; 3 ];
  Host.Liveness.crash liveness (host 3);
  Netsim.Partition.isolate partition [ host 2 ];
  for _ = 1 to 50 do
    Netsim.Net.multicast net ~src:(host 0) ~dsts:[ host 1; host 2; host 3 ] ();
    Netsim.Net.send net ~src:(host 1) ~dst:(host 0) ()
  done;
  (* an unregistered destination and a crashed sender too *)
  Netsim.Net.send net ~src:(host 0) ~dst:(host 9) ();
  Host.Liveness.crash liveness (host 1);
  Netsim.Net.multicast net ~src:(host 1) ~dsts:[ host 0; host 2 ] ();
  Engine.run engine;
  Alcotest.(check int) "attempts = 50*3 + 50 + 1 + 2" 203 (Netsim.Net.attempts net);
  Alcotest.(check int) "attempts reconcile with deliveries + drops"
    (Netsim.Net.attempts net)
    (Netsim.Net.deliveries net + Netsim.Net.dropped_loss net + Netsim.Net.dropped_partition net
   + Netsim.Net.dropped_down net)

let test_total_loss () =
  (* loss = 1.0 (total blackout) is a legal fault-drill setting *)
  let rng = Prng.Splitmix.create ~seed:7L in
  let engine, net = rig ~rng ~loss:1.0 () in
  let received = ref 0 in
  Netsim.Net.register net (host 1) (fun _ -> incr received);
  for _ = 1 to 100 do
    Netsim.Net.send net ~src:(host 0) ~dst:(host 1) ()
  done;
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 !received;
  Alcotest.(check int) "every attempt dropped as loss" 100 (Netsim.Net.dropped_loss net);
  let engine2 = Engine.create () in
  Alcotest.check_raises "loss beyond 1 still rejected"
    (Invalid_argument "Net.create: loss must be in [0, 1]") (fun () ->
      ignore
        (Netsim.Net.create engine2 ~rng ~loss:1.5 ~prop_delay:(ms 0.5) ~proc_delay:(ms 1.) ()
          : unit Netsim.Net.t))

let test_delivery_keeps_schedule_order () =
  (* A delivery and a timer due at the same instant fire in the order
     they were scheduled: the send's, or the timer's. *)
  let engine, net = rig () in
  let log = ref [] in
  Netsim.Net.register net (host 1) (fun e -> log := e.Netsim.Net.payload :: !log);
  let arrival = Time.add (sec 1.) (Netsim.Net.transit net) in
  ignore (Engine.schedule_at engine (sec 1.) (fun () ->
      ignore (Engine.schedule_at engine arrival (fun () -> log := "timer before" :: !log));
      Netsim.Net.send net ~src:(host 0) ~dst:(host 1) "message";
      ignore (Engine.schedule_at engine arrival (fun () -> log := "timer after" :: !log))));
  Engine.run engine;
  Alcotest.(check (list string)) "schedule order at a tie"
    [ "timer before"; "message"; "timer after" ] (List.rev !log)

(* Words allocated (minor + major - promoted) by [n] unicasts, each
   delivered before the next is sent. *)
let unicast_words n =
  let engine, net = rig () in
  let received = ref 0 in
  Netsim.Net.register net (host 1) (fun _ -> incr received);
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  for _ = 1 to n do
    Netsim.Net.send net ~src:(host 0) ~dst:(host 1) ();
    Engine.run engine
  done;
  let used = words () -. before in
  Alcotest.(check int) "every unicast delivered" n !received;
  used

(* The marginal words of a delivered unicast, over 100 k, must stay at
   most its 4-word envelope (+ 0.5): a delivery rides the net's engine
   lane, so a closure or an engine handle per delivery fails this pin. *)
let test_delivery_words () =
  let per_message = (unicast_words 110_000 -. unicast_words 10_000) /. 100_000. in
  if per_message > 4.5 then
    Alcotest.failf "a delivered unicast allocates %.2f words, pinned at 4" per_message

let test_loss_dropped_at_delivery_time () =
  (* a loss drop is decided (and traced) at the instant the message would
     have arrived, not at send time *)
  let rng = Prng.Splitmix.create ~seed:7L in
  let buf = Trace.Sink.buffer () in
  let engine = Engine.create () in
  let net =
    Netsim.Net.create engine ~rng ~loss:1.0 ~tracer:(Trace.Sink.buffer_sink buf)
      ~prop_delay:(ms 0.5) ~proc_delay:(ms 1.) ()
  in
  Netsim.Net.register net (host 1) (fun _ -> ());
  ignore (Engine.schedule_at engine (sec 1.) (fun () ->
      Netsim.Net.send net ~src:(host 0) ~dst:(host 1) ()));
  Engine.run engine;
  let drops =
    List.filter_map
      (fun (e : Trace.Event.t) ->
        match e.Trace.Event.ev with
        | Trace.Event.Net_drop { cause; _ } -> Some (e.Trace.Event.at, cause)
        | _ -> None)
      (Trace.Sink.buffer_contents buf)
  in
  match drops with
  | [ (at, cause) ] ->
    Alcotest.(check (float 1e-7)) "stamped at the would-be delivery instant" 1.0025 at;
    Alcotest.(check string) "cause" "loss" (Trace.Event.drop_cause_name cause)
  | drops -> Alcotest.failf "expected exactly one loss drop, traced %d" (List.length drops)

let test_multicast_mixed_liveness_accounting () =
  (* live sender, one of three destinations crashed: deliveries and down
     drops must split per destination and still reconcile with attempts *)
  let liveness = Host.Liveness.create () in
  let engine, net = rig ~liveness () in
  let received = ref [] in
  List.iter
    (fun i -> Netsim.Net.register net (host i) (fun _ -> received := i :: !received))
    [ 1; 2; 3 ];
  Host.Liveness.crash liveness (host 2);
  Netsim.Net.multicast net ~src:(host 0) ~dsts:[ host 1; host 2; host 3 ] ();
  Engine.run engine;
  Alcotest.(check (list int)) "live destinations reached" [ 1; 3 ] (List.sort compare !received);
  Alcotest.(check int) "one send op" 1 (Netsim.Net.sent net);
  Alcotest.(check int) "three attempts" 3 (Netsim.Net.attempts net);
  Alcotest.(check int) "two deliveries" 2 (Netsim.Net.deliveries net);
  Alcotest.(check int) "one down drop" 1 (Netsim.Net.dropped_down net);
  Alcotest.(check int) "attempts reconcile" (Netsim.Net.attempts net)
    (Netsim.Net.deliveries net + Netsim.Net.dropped_loss net
   + Netsim.Net.dropped_partition net + Netsim.Net.dropped_down net)

(* --- the retransmission table ------------------------------------------ *)

let table ?jitter ~retry_max () =
  let engine, net = rig () in
  let sends = ref [] in
  (* a send reaches host 1 one transit later, so arrivals are spaced as
     the sends are *)
  Netsim.Net.register net (host 1) (fun _ -> sends := Engine.now engine :: !sends);
  let retransmissions = Stats.Counter.Registry.counter (Stats.Counter.Registry.create ()) "r" in
  let t =
    Netsim.Rpc_table.create ~net ~host:(host 0) ~retry_max:(Time.Span.of_sec retry_max) ?jitter
      ~retransmissions ()
  in
  (engine, t, sends, retransmissions)

(* The waits, in us, between the first [n] sends of one unanswered call. *)
let retry_waits ?jitter ~retry_max n =
  let engine, t, sends, retransmissions = table ?jitter ~retry_max () in
  Netsim.Rpc_table.start t ~req:(Netsim.Rpc_table.fresh_req t) ~dst:(host 1) () "req";
  while List.length !sends < n do
    ignore (Engine.step engine)
  done;
  Alcotest.(check int) "every re-send counted" (n - 1) (Stats.Counter.value retransmissions);
  let rec waits = function
    | later :: (earlier :: _ as rest) -> (Time.to_us later - Time.to_us earlier) :: waits rest
    | [] | [ _ ] -> []
  in
  List.rev (waits !sends)

let test_fixed_interval () =
  Alcotest.(check (list int)) "1 s apart" (List.init 5 (fun _ -> 1_000_000))
    (retry_waits ~retry_max:1. 6)

let test_doubling_backoff () =
  Alcotest.(check (list int)) "1, 2, 4, 8, 8 s"
    [ 1_000_000; 2_000_000; 4_000_000; 8_000_000; 8_000_000 ]
    (retry_waits ~retry_max:8. 6)

(* One draw per wait, in order, scaling the doubled and capped wait into
   [0.5, 1.5) of itself. *)
let test_jittered_backoff () =
  let draws = Prng.Splitmix.create ~seed:17L in
  let want =
    List.map
      (fun base -> Time.Span.to_us (Time.Span.scale (0.5 +. Prng.Splitmix.float draws) (ms base)))
      [ 1_000.; 2_000.; 4_000.; 8_000.; 8_000. ]
  in
  Alcotest.(check (list int)) "seeded draws" want
    (retry_waits ~jitter:(Prng.Splitmix.create ~seed:17L) ~retry_max:8. 6)

(* Finishing a call or forgetting them all leaves no timer on the heap. *)
let test_no_timer_left () =
  let engine, t, _, retransmissions = table ~retry_max:1. () in
  let start () =
    Netsim.Rpc_table.start t ~req:(Netsim.Rpc_table.fresh_req t) ~dst:(host 1) () "req"
  in
  start ();
  Engine.run engine ~until:(Time.of_sec 0.5);
  Alcotest.(check int) "one timer armed" 1 (Engine.pending engine);
  Netsim.Rpc_table.finish t 0;
  Alcotest.(check int) "finish cancels it" 0 (Engine.pending engine);
  Alcotest.(check bool) "and forgets the call" true (Option.is_none (Netsim.Rpc_table.find t 0));
  start ();
  start ();
  Engine.run engine ~until:(Time.of_sec 0.9);
  Alcotest.(check int) "two calls outstanding" 2 (Netsim.Rpc_table.length t);
  Netsim.Rpc_table.cancel_all t;
  Alcotest.(check int) "cancel_all cancels every timer" 0 (Engine.pending engine);
  Alcotest.(check int) "and forgets every call" 0 (Netsim.Rpc_table.length t);
  Engine.run engine;
  Alcotest.(check int) "nothing is re-sent" 0 (Stats.Counter.value retransmissions)

let () =
  Alcotest.run "netsim"
    [
      ( "net",
        [
          Alcotest.test_case "delivery timing" `Quick test_delivery_timing;
          Alcotest.test_case "schedule order at a tie" `Quick test_delivery_keeps_schedule_order;
          Alcotest.test_case "delivered unicast words" `Quick test_delivery_words;
          Alcotest.test_case "envelope addressing" `Quick test_envelope_addressing;
          Alcotest.test_case "unregistered destination" `Quick test_unregistered_destination;
          Alcotest.test_case "loss" `Quick test_loss;
          Alcotest.test_case "loss requires rng" `Quick test_loss_requires_rng;
          Alcotest.test_case "NaN loss refused" `Quick test_nan_loss_refused;
          Alcotest.test_case "multicast" `Quick test_multicast;
          Alcotest.test_case "multicast down sender" `Quick test_multicast_down_sender_per_destination;
          Alcotest.test_case "accounting reconciles" `Quick test_accounting_reconciles;
          Alcotest.test_case "total loss" `Quick test_total_loss;
          Alcotest.test_case "loss dropped at delivery time" `Quick
            test_loss_dropped_at_delivery_time;
          Alcotest.test_case "multicast mixed liveness" `Quick
            test_multicast_mixed_liveness_accounting;
        ] );
      ( "rpc table",
        [
          Alcotest.test_case "fixed interval" `Quick test_fixed_interval;
          Alcotest.test_case "doubling backoff" `Quick test_doubling_backoff;
          Alcotest.test_case "jittered backoff" `Quick test_jittered_backoff;
          Alcotest.test_case "no timer left" `Quick test_no_timer_left;
        ] );
      ( "partition+liveness",
        [
          Alcotest.test_case "partition blocks" `Quick test_partition_blocks;
          Alcotest.test_case "partition groups" `Quick test_partition_groups;
          Alcotest.test_case "delivery-time check" `Quick test_partition_checked_at_delivery;
          Alcotest.test_case "crashed receiver" `Quick test_crashed_receiver;
          Alcotest.test_case "crashed sender" `Quick test_crashed_sender;
        ] );
    ]
