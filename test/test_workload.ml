(* Unit tests for the workload substrate: filesets, mixes, generators,
   trace summaries and the trace text format. *)

open Simtime

let span = Time.Span.of_sec

let small_fileset ?(clients = 2) () =
  Workload.Fileset.create ~clients ~installed:4 ~shared:3 ~private_per_client:5
    ~temporary_per_client:2

let test_fileset_classes () =
  let fs = small_fileset () in
  Alcotest.(check int) "clients" 2 (Workload.Fileset.clients fs);
  Alcotest.(check int) "installed" 4 (Workload.Fileset.installed fs);
  Alcotest.(check int) "shared" 3 (Workload.Fileset.shared fs);
  Alcotest.(check int) "private per client" 5 (Workload.Fileset.private_per_client fs);
  Alcotest.(check int) "temporary per client" 2 (Workload.Fileset.temporary_per_client fs);
  Alcotest.(check int) "total" (4 + 3 + (2 * 5) + (2 * 2)) (Workload.Fileset.size fs);
  (match Workload.Fileset.class_of fs (Workload.Fileset.installed_id fs 0) with
  | Workload.Fileset.Installed -> ()
  | _ -> Alcotest.fail "installed class");
  (match Workload.Fileset.class_of fs (Workload.Fileset.private_id fs ~client:1 0) with
  | Workload.Fileset.Private 1 -> ()
  | _ -> Alcotest.fail "private owner");
  Alcotest.check_raises "unknown file" Not_found (fun () ->
      ignore (Workload.Fileset.class_of fs (Vstore.File_id.of_int 999)));
  Alcotest.check_raises "client out of range"
    (Invalid_argument "Fileset: client index out of range") (fun () ->
      ignore (Workload.Fileset.private_id fs ~client:2 0));
  Alcotest.check_raises "file out of range" (Invalid_argument "Fileset: file index out of range")
    (fun () -> ignore (Workload.Fileset.shared_id fs 3))

(* Every id the accessors give, class by class.  The ids are 0 up in the
   order every seeded trace was drawn with: each client's temporaries,
   each client's privates, the shared files, the installed files. *)
let test_fileset_ids_disjoint () =
  let open Workload.Fileset in
  let fs = small_fileset () in
  let ids n id = List.init n (fun i -> Vstore.File_id.to_int (id i)) in
  let per_client id n = List.concat (List.init (clients fs) (fun client -> ids n (id ~client))) in
  let all =
    per_client (temporary_id fs) (temporary_per_client fs)
    @ per_client (private_id fs) (private_per_client fs)
    @ ids (shared fs) (shared_id fs)
    @ ids (installed fs) (installed_id fs)
  in
  Alcotest.(check (list int)) "ids 0 up, class by class" (List.init (size fs) Fun.id) all

let test_mix_validation () =
  Workload.Mix.validate Workload.Mix.v_default;
  let bad = { Workload.Mix.v_default with Workload.Mix.p_installed_read = 0.9; p_shared_read = 0.3 } in
  Alcotest.check_raises "read fractions > 1" (Invalid_argument "Mix: read fractions exceed 1")
    (fun () -> Workload.Mix.validate bad)

let test_mix_class_targeting () =
  let fs = small_fileset () in
  let rng = Prng.Splitmix.create ~seed:5L in
  let pick = Workload.Mix.sampler Workload.Mix.v_default fs in
  (* writes never target installed files *)
  for _ = 1 to 2_000 do
    let f = Workload.Mix.pick_write pick rng ~client:0 in
    match Workload.Fileset.class_of fs f with
    | Workload.Fileset.Installed -> Alcotest.fail "write to installed file"
    | Workload.Fileset.Temporary _ -> Alcotest.fail "write to temporary file via mix"
    | Workload.Fileset.Shared | Workload.Fileset.Private _ -> ()
  done;
  (* reads to private files stay with the owner *)
  for _ = 1 to 2_000 do
    let f = Workload.Mix.pick_read pick rng ~client:1 in
    match Workload.Fileset.class_of fs f with
    | Workload.Fileset.Private owner -> Alcotest.(check int) "owner" 1 owner
    | Workload.Fileset.Installed | Workload.Fileset.Shared -> ()
    | Workload.Fileset.Temporary _ -> Alcotest.fail "read of temporary via mix"
  done

let test_mix_installed_share () =
  let fs = small_fileset () in
  let rng = Prng.Splitmix.create ~seed:6L in
  let n = 20_000 and pick = Workload.Mix.sampler Workload.Mix.v_default fs in
  let installed = ref 0 in
  for _ = 1 to n do
    match Workload.Fileset.class_of fs (Workload.Mix.pick_read pick rng ~client:0) with
    | Workload.Fileset.Installed -> incr installed
    | _ -> ()
  done;
  Alcotest.(check (float 0.02)) "installed read share ~0.48" 0.48
    (float_of_int !installed /. float_of_int n)

let test_poisson_rates () =
  let fs = small_fileset () in
  let rng = Prng.Splitmix.create ~seed:7L in
  let trace =
    Workload.Poisson_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:0.864
      ~write_rate:0.04 ~duration:(span 20_000.) ()
  in
  let s = Workload.Trace.summarize trace in
  Alcotest.(check (float 0.05)) "read rate" 0.864 s.Workload.Trace.read_rate_per_client;
  Alcotest.(check (float 0.01)) "write rate" 0.04 s.Workload.Trace.write_rate_per_client;
  Alcotest.(check int) "both clients appear" 2 s.Workload.Trace.clients

let test_poisson_sorted_and_bounded () =
  let fs = small_fileset () in
  let rng = Prng.Splitmix.create ~seed:8L in
  let duration = span 500. in
  let trace =
    Workload.Poisson_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:1.
      ~write_rate:0.1 ~temp_write_rate:0.5 ~duration ()
  in
  let ops = List.init (Workload.Trace.length trace) (Workload.Trace.op trace) in
  List.iteri
    (fun i (op : Workload.Op.t) ->
      if i > 0 && Time.(op.at < Workload.Trace.at trace (i - 1)) then
        Alcotest.fail "unsorted trace";
      if Time.(op.at > Time.add Time.zero duration) then Alcotest.fail "op beyond horizon")
    ops;
  (* temporary stream present and flagged *)
  let temps = List.filter (fun (o : Workload.Op.t) -> o.temporary) ops in
  Alcotest.(check bool) "temporary ops exist" true (temps <> []);
  List.iter
    (fun (o : Workload.Op.t) ->
      match Workload.Fileset.class_of fs o.file with
      | Workload.Fileset.Temporary owner -> Alcotest.(check int) "temp owner" o.client owner
      | _ -> Alcotest.fail "temporary op on non-temporary file")
    temps

let test_poisson_determinism () =
  let gen seed =
    let fs = small_fileset () in
    let rng = Prng.Splitmix.create ~seed in
    Workload.Poisson_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:1.
      ~write_rate:0.1 ~duration:(span 100.) ()
  in
  let a = gen 42L and b = gen 42L and c = gen 43L in
  Alcotest.(check string) "same seed, same trace" (Workload.Trace_io.print a)
    (Workload.Trace_io.print b);
  Alcotest.(check bool) "different seed differs" true
    (Workload.Trace_io.print a <> Workload.Trace_io.print c)

(* The list-of-records Poisson generator the builder replaced, kept as the
   reference for the RNG draw order and the order ties keep: OCaml
   evaluates the list literal's elements right to left, so the temp-write
   stream draws before the temp-read stream but sits after it. *)
let reference_poisson ~rng ~fileset ~mix ~rate ~temp_rate ~duration =
  let stream ~rng ~rate ~make_op =
    let horizon = Time.Span.to_sec duration in
    let rec arrivals acc t =
      let t = t +. Prng.Dist.exponential rng ~mean:(1. /. rate) in
      if t > horizon then List.rev acc else arrivals (make_op (Time.of_sec t) :: acc) t
    in
    arrivals [] 0.
  in
  let pick = Workload.Mix.sampler mix fileset in
  let client_ops client =
    let rng = Prng.Splitmix.split rng in
    let op kind file temporary at = { Workload.Op.at; client; kind; file; temporary } in
    let reads =
      stream ~rng ~rate ~make_op:(fun at ->
          op Workload.Op.Read (Workload.Mix.pick_read pick rng ~client) false at)
    in
    let writes =
      stream ~rng ~rate ~make_op:(fun at ->
          op Workload.Op.Write (Workload.Mix.pick_write pick rng ~client) false at)
    in
    let temp_stream kind =
      stream ~rng ~rate:temp_rate ~make_op:(fun at ->
          let temps = Workload.Fileset.temporary_per_client fileset in
          op kind
            (Workload.Fileset.temporary_id fileset ~client (Prng.Splitmix.int rng ~bound:temps))
            true at)
    in
    List.concat [ reads; writes; temp_stream Workload.Op.Read; temp_stream Workload.Op.Write ]
  in
  List.stable_sort Workload.Op.compare_by_time
    (List.concat (List.init (Workload.Fileset.clients fileset) client_ops))

(* One temporary file per client and temp streams 10 us apart on average:
   temp reads and writes often share an instant, a client and a file. *)
let test_poisson_matches_reference () =
  let fileset () =
    Workload.Fileset.create ~clients:2 ~installed:4 ~shared:3 ~private_per_client:5
      ~temporary_per_client:1
  in
  let duration = span 0.5 and mix = Workload.Mix.v_default in
  let trace =
    Workload.Poisson_gen.generate ~rng:(Prng.Splitmix.create ~seed:12L) ~fileset:(fileset ()) ~mix
      ~read_rate:2_000. ~write_rate:2_000. ~temp_read_rate:100_000. ~temp_write_rate:100_000.
      ~duration ()
  in
  let want =
    reference_poisson ~rng:(Prng.Splitmix.create ~seed:12L) ~fileset:(fileset ()) ~mix
      ~rate:2_000. ~temp_rate:100_000. ~duration
  in
  let got = List.init (Workload.Trace.length trace) (Workload.Trace.op trace) in
  let key (o : Workload.Op.t) = (o.at, o.client, o.file) in
  let rec ties n = function
    | a :: (b :: _ as rest) -> ties (if key a = key b then n + 1 else n) rest
    | [ _ ] | [] -> n
  in
  Alcotest.(check bool) "the trace has ties to order" true (ties 0 want > 100);
  Alcotest.(check int) "same length" (List.length want) (List.length got);
  Alcotest.(check bool) "op for op" true (got = want)

let test_bursty_rates_and_shape () =
  let fs = small_fileset ~clients:1 () in
  let rng = Prng.Splitmix.create ~seed:9L in
  let trace =
    Workload.Bursty_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:0.864
      ~write_rate:0.04 ~duration:(span 50_000.) ()
  in
  let s = Workload.Trace.summarize trace in
  Alcotest.(check (float 0.15)) "long-run read rate" 0.864 s.Workload.Trace.read_rate_per_client;
  (* burstiness: the variance of inter-arrival gaps far exceeds Poisson's *)
  let gaps =
    Array.init
      (Workload.Trace.length trace - 1)
      (fun i ->
        Time.Span.to_sec (Time.diff (Workload.Trace.at trace (i + 1)) (Workload.Trace.at trace i)))
  in
  let n = float_of_int (Array.length gaps) in
  let mean = Array.fold_left ( +. ) 0. gaps /. n in
  let variance =
    Array.fold_left (fun acc g -> acc +. ((g -. mean) *. (g -. mean))) 0. gaps /. (n -. 1.)
  in
  let cv2 = variance /. (mean *. mean) in
  Alcotest.(check bool) "coefficient of variation far above 1 (bursty)" true (cv2 > 2.)

let test_bursty_unattainable_rate () =
  let fs = small_fileset ~clients:1 () in
  let rng = Prng.Splitmix.create ~seed:10L in
  Alcotest.check_raises "gap too long for the rate"
    (Invalid_argument "Bursty_gen.generate: requested rate unattainable with this burst shape")
    (fun () ->
      ignore
        (Workload.Bursty_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:100.
           ~write_rate:0. ~duration:(span 10.) ()))

let test_trace_order_duration () =
  let op at client =
    { Workload.Op.at = Time.of_sec at; client; kind = Workload.Op.Read;
      file = Vstore.File_id.of_int 0; temporary = false }
  in
  let trace = Workload.Trace.of_ops [ op 3. 0; op 1. 0; op 2. 1 ] in
  Alcotest.(check (list int)) "ordered by time"
    [ 0; 1; 0 ]
    (List.init (Workload.Trace.length trace) (Workload.Trace.client trace));
  let parts = Workload.Trace.partition trace ~parts:2 ~f:(Workload.Trace.client trace) in
  Alcotest.(check (list int)) "partition keeps order" [ 2; 1 ]
    (List.map Workload.Trace.length (Array.to_list parts));
  Alcotest.(check (float 1e-9)) "part 0 ends at its last op" 3.
    (Time.Span.to_sec (Workload.Trace.duration parts.(0)));
  Alcotest.(check (float 1e-9)) "duration" 3. (Time.Span.to_sec (Workload.Trace.duration trace));
  Alcotest.(check (float 1e-9)) "empty duration" 0.
    (Time.Span.to_sec (Workload.Trace.duration (Workload.Trace.of_ops [])))

let test_trace_io_roundtrip () =
  let fs = small_fileset () in
  let rng = Prng.Splitmix.create ~seed:11L in
  let trace =
    Workload.Poisson_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:2.
      ~write_rate:0.5 ~temp_write_rate:0.3 ~duration:(span 60.) ()
  in
  let text = Workload.Trace_io.print trace in
  match Workload.Trace_io.parse text with
  | Ok back -> Alcotest.(check string) "print . parse = id" text (Workload.Trace_io.print back)
  | Error why -> Alcotest.failf "unexpected parse error: %s" why

let test_trace_io_parsing () =
  let ok = Workload.Trace_io.parse "# comment\n\n100 0 R 5\n200 1 W 6 T\n" in
  (match ok with
  | Ok trace ->
    Alcotest.(check int) "two ops" 2 (Workload.Trace.length trace);
    Alcotest.(check bool) "temp flag" true (Workload.Trace.temporary trace 1)
  | Error why -> Alcotest.failf "unexpected parse error: %s" why);
  (match Workload.Trace_io.parse "100 0 R 5\nbogus line\n" with
  | Error why ->
    Alcotest.(check bool) "error names line 2" true
      (String.length why >= 6 && String.sub why 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "expected parse failure");
  (match Workload.Trace_io.parse "100 0 X 5\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad kind accepted");
  (match Workload.Trace_io.parse "-1 0 R 5\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative time accepted");
  (* ids outside the packed fields are refused, never wrapped *)
  List.iter
    (fun (text, want) ->
      match Workload.Trace_io.parse text with
      | Error why -> Alcotest.(check string) text want why
      | Ok _ -> Alcotest.failf "accepted %S" text)
    [
      ( "100 0 R 5\n200 0 R 100000000\n",
        "line 2: Trace.Builder.add: file 100000000 outside [0, 67108864)" );
      ( "# header\n100 1073741824 W 5\n",
        "line 2: Trace.Builder.add: client 1073741824 outside [0, 1073741824)" );
      ( "100 0 R 1099511627776 T\n",
        "line 1: Trace.Builder.add: file 1099511627776 outside [0, 67108864)" );
    ]

(* [Trace_io.print] MD5s of small seeded traces, recorded when traces were
   lists of records sorted with [List.sort]: the packed representation
   must draw, order and print every op the same (equal to
   [leases-tracegen -w KIND -n 7 -d 300 -s 5]). *)
let test_trace_io_pinned () =
  let duration = span 300. in
  List.iter
    (fun (name, (v : Experiments.V_trace.t), want) ->
      Alcotest.(check string) name want
        (Digest.to_hex (Digest.string (Workload.Trace_io.print v.Experiments.V_trace.trace))))
    [
      ( "poisson",
        Experiments.V_trace.poisson ~seed:5L ~clients:7 ~duration (),
        "77ab7ded6f9ffd2c0ce5d020ebbeb79e" );
      ( "shared_heavy",
        Experiments.V_trace.shared_heavy ~seed:5L ~clients:7 ~duration (),
        "af0adc6839eddc856a09aac30005d43d" );
      ( "bursty",
        Experiments.V_trace.bursty ~seed:5L ~clients:7 ~duration (),
        "312630c1bb883966fbb39726bc888922" );
    ]

(* Words allocated: minor + major - promoted. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* The marginal words of generating one op of the V trace at 100 clients,
   between 200 s and 2000 s of it, must stay at most [pin] (+ 0.5).  A
   draw allocates nothing, so what is left is the builder's chunks, two
   words an op, and [finish]'s two exact-size outputs and bucket starts,
   an eighth of a word an op: 4.06 words an op.  Builder arrays that
   double as they fill read 7.41; a Zipf table built per draw reads over
   100 words an op, and a boxed generator state or a boxed instant per
   arrival adds several words. *)
let test_generation_words () =
  let generate seconds =
    let before = words () in
    let v = Experiments.V_trace.poisson ~seed:11L ~clients:100 ~duration:(span seconds) () in
    (words () -. before, Workload.Trace.length v.Experiments.V_trace.trace)
  in
  let w_short, n_short = generate 200. and w_long, n_long = generate 2_000. in
  let per_op = (w_long -. w_short) /. float_of_int (n_long - n_short) and pin = 4. in
  if per_op > pin +. 0.5 then
    Alcotest.failf "generating the V trace allocates %.2f words an op, pinned at %.0f" per_op pin

(* A fileset is its five counts, so creating one costs the same words at
   10 clients as at 10 000: per-client id arrays and a class index built
   over them cost 52 words a client. *)
let test_fileset_words () =
  let create clients =
    let before = words () in
    ignore (Sys.opaque_identity (Experiments.V_trace.fileset ~clients ()));
    words () -. before
  in
  let small = create 10 and large = create 10_000 in
  if large <> small then
    Alcotest.failf "a fileset costs %.0f words at 10 clients and %.0f at 10 000" small large

(* Generating the [v_lan_n10k] benchmark trace (10 000 clients, 15 s,
   157 748 ops) must allocate at most 1.25 M words: a fileset of
   per-client arrays reads 1 704 252. *)
let test_wide_generation_words () =
  let before = words () in
  ignore
    (Sys.opaque_identity
       (Experiments.V_trace.poisson ~seed:11L ~clients:10_000 ~duration:(span 15.) ()));
  let allocated = words () -. before and pin = 1_250_000. in
  if allocated > pin then
    Alcotest.failf "generating the 10 000-client V trace allocates %.0f words, pinned at %.0f"
      allocated pin

(* Generating the seed-1 campaign's 400 schedule traces (78 391 ops, about
   200 a trace) must allocate no more than the 782 375 words it did while
   the builder kept one array that doubled as it filled: 718 748 with the
   first chunk doubling and an eighth of a bucket start an op.  A first
   chunk of full size reads 6.97 M. *)
let test_campaign_generation_words () =
  let schedules = Fault_campaign.Gen.schedules ~seed:1 ~n:400 in
  let before = words () in
  List.iter (fun s -> ignore (Fault_campaign.Schedule.trace s)) schedules;
  let allocated = words () -. before and pin = 782_375. in
  if allocated > pin then
    Alcotest.failf "generating the campaign's 400 traces allocates %.0f words, pinned at %.0f"
      allocated pin

(* [Trace_io.print] MD5s of the benchmark's full-size traces (perfbench's
   [v_lan_n100], [v_lan_n10k] and [shared_writes]) and of the seed-1
   campaign's 400 schedule traces printed one after another, recorded
   before the generators built their Zipf tables once and [Builder.finish]
   became a bucket sort: neither may move a draw or an op. *)
let test_benchmark_traces_pinned () =
  List.iter
    (fun (name, (v : Experiments.V_trace.t), ops, want) ->
      let trace = v.Experiments.V_trace.trace in
      Alcotest.(check int) (name ^ " ops") ops (Workload.Trace.length trace);
      Alcotest.(check string) name want
        (Digest.to_hex (Digest.string (Workload.Trace_io.print trace))))
    [
      ( "v_lan_n100",
        Experiments.V_trace.poisson ~seed:11L ~clients:100 ~duration:(span 2_000.) (),
        211_021,
        "0c9309207c1181765ba05cec5209db60" );
      ( "v_lan_n10k",
        Experiments.V_trace.poisson ~seed:11L ~clients:10_000 ~duration:(span 15.) (),
        157_748,
        "9f98136eb7e14fd1eb8730481c551f00" );
      ( "shared_writes",
        Experiments.V_trace.shared_heavy ~seed:29L ~clients:40 ~duration:(span 20_000.) (),
        720_909,
        "2f59b0375d5e4bd8a13ea674ab51b3d7" );
    ]

let test_campaign_traces_pinned () =
  let b = Buffer.create (1 lsl 20) and ops = ref 0 in
  List.iter
    (fun schedule ->
      let trace = Fault_campaign.Schedule.trace schedule in
      ops := !ops + Workload.Trace.length trace;
      Buffer.add_string b (Workload.Trace_io.print trace))
    (Fault_campaign.Gen.schedules ~seed:1 ~n:400);
  Alcotest.(check int) "ops" 78_391 !ops;
  Alcotest.(check string) "400 traces" "0e30873af21ed87df469b28fdb2893e6"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let () =
  Alcotest.run "workload"
    [
      ( "fileset",
        [
          Alcotest.test_case "classes" `Quick test_fileset_classes;
          Alcotest.test_case "ids disjoint" `Quick test_fileset_ids_disjoint;
          Alcotest.test_case "fileset words" `Quick test_fileset_words;
        ] );
      ( "mix",
        [
          Alcotest.test_case "validation" `Quick test_mix_validation;
          Alcotest.test_case "class targeting" `Quick test_mix_class_targeting;
          Alcotest.test_case "installed share" `Quick test_mix_installed_share;
        ] );
      ( "generators",
        [
          Alcotest.test_case "poisson rates" `Quick test_poisson_rates;
          Alcotest.test_case "sorted + bounded" `Quick test_poisson_sorted_and_bounded;
          Alcotest.test_case "determinism" `Quick test_poisson_determinism;
          Alcotest.test_case "poisson = list reference" `Quick test_poisson_matches_reference;
          Alcotest.test_case "bursty rates + shape" `Quick test_bursty_rates_and_shape;
          Alcotest.test_case "bursty rejects impossible rate" `Quick test_bursty_unattainable_rate;
          Alcotest.test_case "V trace words per op" `Quick test_generation_words;
          Alcotest.test_case "campaign trace words" `Quick test_campaign_generation_words;
          Alcotest.test_case "10 000-client trace words" `Quick test_wide_generation_words;
        ] );
      ( "trace",
        [
          Alcotest.test_case "order + duration" `Quick test_trace_order_duration;
          Alcotest.test_case "io roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "io parsing" `Quick test_trace_io_parsing;
          Alcotest.test_case "io pinned" `Quick test_trace_io_pinned;
          Alcotest.test_case "benchmark traces pinned" `Quick test_benchmark_traces_pinned;
          Alcotest.test_case "campaign traces pinned" `Quick test_campaign_traces_pinned;
        ] );
    ]
