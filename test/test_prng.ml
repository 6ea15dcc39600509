(* Unit tests for the PRNG and its distributions: determinism, split
   independence, and distribution sanity (means/shapes, not exact values). *)

let test_determinism () =
  let a = Prng.Splitmix.create ~seed:42L in
  let b = Prng.Splitmix.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Prng.Splitmix.next_int64 a)
      (Prng.Splitmix.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.Splitmix.create ~seed:1L in
  let b = Prng.Splitmix.create ~seed:2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.Splitmix.next_int64 a) (Prng.Splitmix.next_int64 b)) then
      differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_split_independence () =
  (* Drawing from a split must not perturb the parent's future stream
     relative to another parent that split but never used the child. *)
  let a = Prng.Splitmix.create ~seed:7L in
  let b = Prng.Splitmix.create ~seed:7L in
  let child_a = Prng.Splitmix.split a in
  let _child_b = Prng.Splitmix.split b in
  for _ = 1 to 50 do
    ignore (Prng.Splitmix.next_int64 child_a)
  done;
  for _ = 1 to 20 do
    Alcotest.(check int64) "parent stream unaffected by child use"
      (Prng.Splitmix.next_int64 a) (Prng.Splitmix.next_int64 b)
  done

let test_float_range () =
  let rng = Prng.Splitmix.create ~seed:3L in
  for _ = 1 to 10_000 do
    let x = Prng.Splitmix.float rng in
    if x < 0. || x >= 1. then Alcotest.failf "float out of [0,1): %g" x
  done

let test_float_mean () =
  let rng = Prng.Splitmix.create ~seed:5L in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.Splitmix.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check (float 0.01)) "uniform mean ~0.5" 0.5 mean

let test_int_bounds () =
  let rng = Prng.Splitmix.create ~seed:9L in
  let seen = Array.make 7 0 in
  for _ = 1 to 7_000 do
    let v = Prng.Splitmix.int rng ~bound:7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v;
    seen.(v) <- seen.(v) + 1
  done;
  Array.iteri
    (fun i count ->
      if count < 700 then Alcotest.failf "bucket %d underrepresented: %d/7000" i count)
    seen;
  Alcotest.check_raises "zero bound" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Prng.Splitmix.int rng ~bound:0))

let test_bool_probability () =
  let rng = Prng.Splitmix.create ~seed:11L in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.Splitmix.bool rng ~p:0.3 then incr hits
  done;
  Alcotest.(check (float 0.02)) "p=0.3" 0.3 (float_of_int !hits /. float_of_int n)

let test_exponential_mean () =
  let rng = Prng.Splitmix.create ~seed:13L in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Prng.Dist.exponential rng ~mean:2.5 in
    if x < 0. then Alcotest.failf "negative exponential variate %g" x;
    sum := !sum +. x
  done;
  Alcotest.(check (float 0.08)) "mean ~2.5" 2.5 (!sum /. float_of_int n);
  Alcotest.check_raises "bad mean" (Invalid_argument "Dist.exponential: mean must be positive")
    (fun () -> ignore (Prng.Dist.exponential rng ~mean:0.))

let test_geometric () =
  let rng = Prng.Splitmix.create ~seed:17L in
  let n = 30_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let v = Prng.Dist.geometric rng ~p:0.25 in
    if v < 1 then Alcotest.failf "geometric below 1: %d" v;
    sum := !sum + v
  done;
  Alcotest.(check (float 0.15)) "mean ~1/p = 4" 4. (float_of_int !sum /. float_of_int n);
  Alcotest.(check int) "p=1 is constant 1" 1 (Prng.Dist.geometric rng ~p:1.)

let test_uniform_range () =
  let rng = Prng.Splitmix.create ~seed:19L in
  for _ = 1 to 1_000 do
    let x = Prng.Dist.uniform rng ~lo:(-2.) ~hi:3. in
    if x < -2. || x >= 3. then Alcotest.failf "uniform out of range: %g" x
  done

let test_zipf_shape () =
  let rng = Prng.Splitmix.create ~seed:23L in
  let table = Prng.Dist.Zipf_table.create ~n:10 ~s:1.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let v = Prng.Dist.Zipf_table.draw table rng in
    counts.(v) <- counts.(v) + 1
  done;
  (* rank 0 must dominate rank 9 roughly 10:1 for s = 1 *)
  Alcotest.(check bool) "head beats tail" true (counts.(0) > 5 * counts.(9));
  Alcotest.(check bool) "monotone-ish head" true (counts.(0) > counts.(1));
  (* s = 0 degenerates to uniform *)
  let flat = Prng.Dist.Zipf_table.create ~n:4 ~s:0. in
  let fc = Array.make 4 0 in
  for _ = 1 to 20_000 do
    let v = Prng.Dist.Zipf_table.draw flat rng in
    fc.(v) <- fc.(v) + 1
  done;
  Array.iter (fun c -> if c < 1_500 then Alcotest.fail "uniform zipf bucket starved") fc

let test_pareto () =
  let rng = Prng.Splitmix.create ~seed:29L in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Prng.Dist.pareto rng ~shape:2.5 ~scale:1.5 in
    if x < 1.5 then Alcotest.failf "pareto below scale: %g" x;
    sum := !sum +. x
  done;
  (* mean = scale * shape / (shape - 1) = 2.5 *)
  Alcotest.(check (float 0.1)) "pareto mean" 2.5 (!sum /. float_of_int n)

(* The first 64 draws of each kind from a fresh generator at seed 42 (and
   of the child it splits off), recorded while the state was a boxed
   [int64] field: holding it unboxed must not move a bit.  The int64,
   float and child streams are pinned by the MD5 of their decimal (hex
   for floats) renderings, space-separated. *)
let test_streams_pinned () =
  let stream render draw =
    let rng = Prng.Splitmix.create ~seed:42L in
    String.concat " " (List.init 64 (fun _ -> render (draw rng)))
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "next_int64" "88cd135575ee107cdb41fc5be9226dd6"
    (md5 (stream Int64.to_string Prng.Splitmix.next_int64));
  Alcotest.(check string) "float" "e9c585e6853f1393bd47d7ab33e9c093"
    (md5 (stream (Printf.sprintf "%h") Prng.Splitmix.float));
  Alcotest.(check string) "int ~bound:7"
    "1434142536415206462556166100335602312161146614242562252216055352"
    (String.concat "" (String.split_on_char ' '
       (stream string_of_int (Prng.Splitmix.int ~bound:7))));
  Alcotest.(check string) "bool ~p:0.3"
    "0110101000100001101001001100000000001101011000110001101000011001"
    (String.concat "" (String.split_on_char ' '
       (stream (fun b -> if b then "1" else "0") (Prng.Splitmix.bool ~p:0.3))));
  Alcotest.(check string) "split child" "f4334b3645dd86b8da7d1aacd2b4e793"
    (md5
       (let child = Prng.Splitmix.split (Prng.Splitmix.create ~seed:42L) in
        String.concat " "
          (List.init 64 (fun _ -> Int64.to_string (Prng.Splitmix.next_int64 child)))))

(* Words (minor + major - promoted) allocated by [n] calls of [f]. *)
let words_per_call f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let n = 100_000 in
  let before = words () in
  f n;
  (words () -. before) /. float_of_int n

(* No draw allocates: the state is stored unboxed, and the float draws are
   inlined where they are consumed.  These pins hold in the default
   release build; [--profile dev] compiles each library [-opaque], so a
   float crossing a module boundary is boxed there (DESIGN.md §16). *)
let test_draws_allocate_nothing () =
  let rng = Prng.Splitmix.create ~seed:3L in
  let table = Prng.Dist.Zipf_table.create ~n:20 ~s:0.8 in
  let sink = ref 0 in
  List.iter
    (fun (name, f) ->
      let per_draw = words_per_call f in
      if per_draw > 0.5 then Alcotest.failf "%s allocates %.2f words a draw" name per_draw)
    [
      ( "Splitmix.float",
        fun n ->
          for _ = 1 to n do
            if Prng.Splitmix.float rng < 0.5 then incr sink
          done );
      ( "Splitmix.int",
        fun n ->
          for _ = 1 to n do
            sink := !sink + Prng.Splitmix.int rng ~bound:7
          done );
      ( "Splitmix.bool",
        fun n ->
          for _ = 1 to n do
            if Prng.Splitmix.bool rng ~p:0.3 then incr sink
          done );
      ( "Zipf_table.draw",
        fun n ->
          for _ = 1 to n do
            sink := !sink + Prng.Dist.Zipf_table.draw table rng
          done );
    ];
  Alcotest.(check bool) "draws were consumed" true (!sink > 0)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "bool probability" `Quick test_bool_probability;
          Alcotest.test_case "streams pinned" `Quick test_streams_pinned;
          Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "geometric" `Quick test_geometric;
          Alcotest.test_case "uniform range" `Quick test_uniform_range;
          Alcotest.test_case "zipf shape" `Quick test_zipf_shape;
          Alcotest.test_case "pareto" `Quick test_pareto;
        ] );
    ]
