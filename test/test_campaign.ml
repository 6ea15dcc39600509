(* Campaign harness: seeded generation must be deterministic and
   prefix-stable, full campaign reports byte-identical, every fault must
   round-trip through the shared spec parser (which rejects malformed and
   negative input), and the server's write-queue table must drain back to
   empty (the queued-entry leak). *)

open Simtime

let commands scheds = List.map Fault_campaign.Schedule.to_command scheds

let test_generation_deterministic () =
  let a = commands (Fault_campaign.Gen.schedules ~seed:42 ~n:6) in
  let b = commands (Fault_campaign.Gen.schedules ~seed:42 ~n:6) in
  Alcotest.(check (list string)) "same seed, same schedules" a b;
  let c = commands (Fault_campaign.Gen.schedules ~seed:43 ~n:6) in
  Alcotest.(check bool) "different seed differs" false (a = c)

let test_generation_prefix_stable () =
  let six = commands (Fault_campaign.Gen.schedules ~seed:42 ~n:6) in
  let three = commands (Fault_campaign.Gen.schedules ~seed:42 ~n:3) in
  Alcotest.(check (list string)) "schedule i independent of n" three
    (List.filteri (fun i _ -> i < 3) six)

(* Counting up from 0 to a negative count never stops, and the schedule
   list grows without bound.  The library refuses such a count, and so
   does leases-campaign, as a flag error before it generates anything. *)
let test_negative_count_refused () =
  Alcotest.check_raises "Gen.schedules ~n:(-3)"
    (Invalid_argument "Gen.schedules: n = -3 is negative") (fun () ->
      ignore (Fault_campaign.Gen.schedules ~seed:1 ~n:(-3)));
  Alcotest.(check int) "zero schedules is empty" 0
    (List.length (Fault_campaign.Gen.schedules ~seed:1 ~n:0));
  let campaign = Filename.concat (Filename.dirname Sys.executable_name) "../bin/campaign.exe" in
  let err = Filename.temp_file "leases_campaign" ".err" in
  let code =
    Sys.command
      (Filename.quote_command campaign ~stdout:Filename.null ~stderr:err [ "--schedules=-3" ])
  in
  let message = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  Alcotest.(check int) "leases-campaign exits with its flag-error status" 124 code;
  Alcotest.(check string) "leases-campaign names the flag and the value"
    "leases-campaign: --schedules -3: the number of schedules must be at least 0\n" message

let test_pinned_seed_schedule () =
  (* pins the whole derivation chain: splitmix splits, draw order, fault
     grammar and number formatting *)
  match Fault_campaign.Gen.schedules ~seed:1 ~n:1 with
  | [ s ] ->
    Alcotest.(check string) "seed 1, schedule 0"
      "leases-sim -p leases -t 10 -n 5 -d 47 -s -6894164319213084917 -w bursty --loss \
       0.1593918509 --fault 'crash-client=3,9.076349,23.339903' --fault \
       'client-step=2,7.921407,9.840989' --fault 'server-drift=33.956426,-0.529099612097' \
       --fault 'server-drift=41.337524,0'"
      (Fault_campaign.Schedule.to_command s)
  | _ -> Alcotest.fail "expected exactly one schedule"

(* Every constructor, with indices, instants and spans on the
   microsecond grid below 10^6 s and drift rates of at most six decimals —
   the range the spec's 12 significant digits carry exactly — parses back
   to the same fault and prints back to the same spec. *)
let fault_gen =
  QCheck.Gen.(
    let index = int_range 0 40 in
    let at = map Time.of_us (int_range 0 999_999_999_999) in
    let span = map Time.Span.of_us (int_range 0 999_999_999_999) in
    let signed_span = map Time.Span.of_us (int_range (-999_999_999) 999_999_999) in
    let drift = map (fun n -> float_of_int n /. 1e6) (int_range (-999_999) 9_999_999) in
    oneof
      [
        map3 (fun client at duration -> Leases.Sim.Crash_client { client; at; duration }) index at span;
        map2 (fun at duration -> Leases.Sim.Crash_server { at; duration }) at span;
        map3 (fun shard at duration -> Leases.Sim.Crash_shard { shard; at; duration }) index at span;
        map3
          (fun clients at duration -> Leases.Sim.Partition_clients { clients; at; duration })
          (list_size (int_range 1 4) index) at span;
        map3 (fun client at drift -> Leases.Sim.Client_drift { client; at; drift }) index at drift;
        map3 (fun shard at drift -> Leases.Sim.Server_drift { shard; at; drift }) index at drift;
        map3 (fun client at step -> Leases.Sim.Client_step { client; at; step }) index at signed_span;
        map3 (fun shard at step -> Leases.Sim.Server_step { shard; at; step }) index at signed_span;
      ])

let prop_fault_specs_round_trip =
  QCheck.Test.make ~name:"fault specs round-trip" ~count:2000
    (QCheck.make ~print:Leases.Sim.fault_to_spec fault_gen)
    (fun f ->
      let spec = Leases.Sim.fault_to_spec f in
      match Leases.Sim.fault_of_spec spec with
      | Ok f' -> f' = f && Leases.Sim.fault_to_spec f' = spec
      | Error why -> QCheck.Test.fail_reportf "spec %S does not parse: %s" spec why)

let test_generated_specs_round_trip () =
  (* what the campaign generator actually emits parses back too *)
  List.iter
    (fun s ->
      List.iter
        (fun f ->
          let spec = Leases.Sim.fault_to_spec f in
          match Leases.Sim.fault_of_spec spec with
          | Ok f' -> Alcotest.(check string) ("round-trip " ^ spec) spec (Leases.Sim.fault_to_spec f')
          | Error why -> Alcotest.fail (Printf.sprintf "spec %S does not parse: %s" spec why))
        s.Fault_campaign.Schedule.faults)
    (Fault_campaign.Gen.schedules ~seed:42 ~n:10)

let test_rejected_fault_specs () =
  List.iter
    (fun (spec, why) ->
      match Leases.Sim.fault_of_spec spec with
      | Error _ -> ()
      | Ok f ->
        Alcotest.failf "spec %S (%s) must be rejected, parsed as %s" spec why
          (Leases.Sim.fault_to_spec f))
    [
      ("crash-client=1.7,10,5", "fractional client index");
      ("crash-client=-1,10,5", "negative client index");
      ("client-step=-1,10,1", "negative client index");
      ("client-drift=1e1,10,0.5", "client index not an integer");
      ("partition=1+-9,10,5", "negative client in a partition");
      ("partition=1+2.5,10,5", "fractional client in a partition");
      ("partition=,10,5", "empty client in a partition");
      ("crash-shard=-2,10,5", "negative shard");
      ("server-drift=-1,10,0.5", "negative shard");
      ("server-step=1.5,10,1", "fractional shard");
      ("crash-client=0,10,-5", "negative duration");
      ("crash-server=10,-0.5", "negative duration");
      ("partition=0,10,-1", "negative duration");
      ("crash-client=0,-10,5", "negative instant");
      ("server-drift=-1,0.5", "negative instant");
      ("client-step=0,-3,1", "negative instant");
      ("server-drift=nan,0.5", "non-finite instant");
      ("server-step=1e300,2", "overflowing instant");
      ("crash-server=nan,5", "non-finite instant");
      ("crash-client=0,10", "missing argument");
      ("crash-server=1,2,3,4", "extra argument");
      ("bogus=1,2,3", "unknown kind");
      ("crash-client", "no arguments");
    ]

let test_shard_indexed_clock_fault_specs () =
  let parses spec expect =
    match Leases.Sim.fault_of_spec spec with
    | Ok f -> Alcotest.(check string) ("parse " ^ spec) expect (Leases.Sim.fault_to_spec f)
    | Error why -> Alcotest.fail (Printf.sprintf "spec %S does not parse: %s" spec why)
  in
  (* two-argument legacy form is shard 0 and prints back without the index *)
  parses "server-drift=40,-0.5" "server-drift=40,-0.5";
  parses "server-step=12.5,2" "server-step=12.5,2";
  (* three-argument form carries the shard and round-trips with it *)
  parses "server-drift=2,40,-0.5" "server-drift=2,40,-0.5";
  parses "server-step=3,12.5,-2" "server-step=3,12.5,-2";
  (match Leases.Sim.fault_of_spec "server-drift=2,40,-0.5" with
  | Ok (Leases.Sim.Server_drift { shard; _ }) -> Alcotest.(check int) "shard index" 2 shard
  | _ -> Alcotest.fail "three-argument server-drift must carry its shard");
  (* garbage times are a parse error, not an escaping exception *)
  List.iter
    (fun spec ->
      match Leases.Sim.fault_of_spec spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S must be rejected" spec)
    [ "server-drift=nan,0.5"; "server-step=1e300,2"; "crash-server=nan,5" ]

let test_campaign_report_byte_identical () =
  let report () =
    Trace.Json.to_string
      (Fault_campaign.Harness.to_json
         (Fault_campaign.Harness.run ~shrink:false ~seed:5 ~schedules:2 ()))
  in
  let a = report () in
  Alcotest.(check string) "same seed, same bytes" a (report ())

(* Pins the whole seed-1 campaign report (25 schedules: single-server,
   sharded and degraded ones), as [campaign --seed 1 --schedules 25 --json]
   prints it.  The runner's observers (checker, critical path, telemetry)
   feed every field but the schedule itself, so a change in how they are
   attached or fed shows up here. *)
let test_campaign_report_golden () =
  let s = Fault_campaign.Harness.run ~seed:1 ~schedules:25 () in
  let outcomes = List.map (fun r -> r.Fault_campaign.Harness.outcome) s.Fault_campaign.Harness.results in
  let count p = List.length (List.filter p outcomes) in
  Alcotest.(check bool) "covers sharded schedules" true
    (count (fun o -> o.Fault_campaign.Runner.schedule.Fault_campaign.Schedule.n_shards > 1) > 0);
  Alcotest.(check bool) "covers single-server schedules" true
    (count (fun o -> o.Fault_campaign.Runner.schedule.Fault_campaign.Schedule.n_shards = 1) > 0);
  Alcotest.(check bool) "covers degraded schedules" true (s.Fault_campaign.Harness.degraded > 0);
  Alcotest.(check string) "report MD5" "0427717a9cca7dd24bab802dc24bd6fe"
    (Digest.to_hex (Digest.string (Trace.Json.to_string (Fault_campaign.Harness.to_json s))))

(* Words allocated (minor + major - promoted) by [f]; the minor part comes
   from [Gc.minor_words]: on OCaml 5.1, [Gc.counters] counts the live minor
   heap at an eighth of its size. *)
let words_of f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  f ();
  words () -. before

(* What the golden's 25 schedules allocate through [Runner.run]: their
   traces, the runs and the observers.  1 982 244 words with a writes-only
   analyzer that builds only its write row and a sampler without window
   detail; 2 041 332 when the writes-only analyzer built all three rows
   and its filesets kept per-client id arrays, and over 2.2 M with the
   full analyzer or the detailed sampler, so the pin fails if either
   observer goes back to building what the campaign never reads. *)
let test_runner_words () =
  let schedules = Fault_campaign.Gen.schedules ~seed:1 ~n:25 in
  let allocated =
    words_of (fun () -> List.iter (fun s -> ignore (Fault_campaign.Runner.run s)) schedules)
  and pin = 2_020_000. in
  if allocated > pin then
    Alcotest.failf "the 25 schedules allocate %.0f words through Runner.run, pinned at %.0f"
      allocated pin

let test_sharded_schedules_generated () =
  (* ~25% of schedules shard the namespace; each sharded schedule carries a
     shard-failover fault and reproduces via --shards *)
  let scheds = Fault_campaign.Gen.schedules ~seed:7 ~n:20 in
  let sharded = List.filter (fun s -> s.Fault_campaign.Schedule.n_shards > 1) scheds in
  Alcotest.(check bool) "some schedules are sharded" true (sharded <> []);
  List.iter
    (fun s ->
      let cmd = Fault_campaign.Schedule.to_command s in
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length cmd && (String.sub cmd i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) ("command reproduces sharding: " ^ cmd) true (has "--shards");
      Alcotest.(check bool) ("failover fault present: " ^ cmd) true (has "crash-shard="))
    sharded

let test_unsafe_budget_small_vs_allowance () =
  Alcotest.(check bool) "unsafe budget under the 100 ms skew allowance" true
    (Fault_campaign.Gen.unsafe_skew_budget_s < 0.1)

(* The queued-write leak: a file's queue entry must disappear once its
   last queued write commits, so [Server.snapshot] reports zero queued
   files after every burst drains. *)

let run_write_burst ops =
  let engine = Engine.create () in
  let liveness = Host.Liveness.create () in
  let partition = Netsim.Partition.create () in
  let net =
    Netsim.Net.create engine ~liveness ~partition ~prop_delay:(Time.Span.of_ms 0.5)
      ~proc_delay:(Time.Span.of_ms 1.) ()
  in
  let n_clients = 3 in
  let server_host = Host.Host_id.of_int 0 in
  let client_hosts = List.init n_clients (fun i -> Host.Host_id.of_int (i + 1)) in
  let store = Vstore.Store.create () in
  let config = Leases.Config.default in
  let server =
    Leases.Server.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host:server_host
      ~clients:client_hosts ~store ~config ()
  in
  let clients =
    Array.of_list
      (List.map
         (fun host ->
           Leases.Client.create ~clock:(Clock.create engine ()) ~net ~liveness ~host
             ~server:server_host ~config ())
         client_hosts)
  in
  let completed = ref 0 in
  List.iter
    (fun (at_ms, client, file) ->
      ignore
        (Engine.schedule_at engine
           (Time.of_sec (float_of_int at_ms /. 1000.))
           (fun () ->
             Leases.Client.write clients.(client) (Vstore.File_id.of_int file) ~k:(fun _ ->
                 incr completed))))
    ops;
  Engine.run engine;
  (server, !completed)

let queued_drains_to_zero =
  QCheck.Test.make ~name:"queued table empty after write bursts drain" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 25)
        (triple (int_range 1 5_000) (int_range 0 2) (int_range 0 3)))
    (fun ops ->
      let server, completed = run_write_burst ops in
      let snap = Leases.Server.snapshot server in
      completed = List.length ops
      && snap.Leases.Server.queued_files = 0
      && snap.Leases.Server.queued_writes = 0
      && snap.Leases.Server.pending_writes = 0)

let () =
  Alcotest.run "campaign"
    [
      ( "generation",
        [
          Alcotest.test_case "deterministic" `Quick test_generation_deterministic;
          Alcotest.test_case "prefix stable" `Quick test_generation_prefix_stable;
          Alcotest.test_case "pinned seed" `Quick test_pinned_seed_schedule;
          Alcotest.test_case "negative count refused" `Quick test_negative_count_refused;
          QCheck_alcotest.to_alcotest prop_fault_specs_round_trip;
          Alcotest.test_case "generated specs round-trip" `Quick test_generated_specs_round_trip;
          Alcotest.test_case "bad fault specs rejected" `Quick test_rejected_fault_specs;
          Alcotest.test_case "shard-indexed clock faults" `Quick test_shard_indexed_clock_fault_specs;
          Alcotest.test_case "sharded schedules generated" `Quick test_sharded_schedules_generated;
          Alcotest.test_case "unsafe budget bounded" `Quick test_unsafe_budget_small_vs_allowance;
        ] );
      ( "harness",
        [
          Alcotest.test_case "report byte-identical" `Slow test_campaign_report_byte_identical;
          Alcotest.test_case "golden: seed 1 report" `Quick test_campaign_report_golden;
          Alcotest.test_case "runner words" `Quick test_runner_words;
        ] );
      ("server", [ QCheck_alcotest.to_alcotest queued_drains_to_zero ]);
    ]
