(* Unit tests for the stats substrate: histograms, series and table
   rendering. *)

let test_histogram_quantiles () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.add h (float_of_int i /. 1000.)
  done;
  Alcotest.(check int) "count" 1000 (Stats.Histogram.count h);
  let p50 = Stats.Histogram.quantile h 0.5 in
  (* log-bucketed: allow the bucket-width relative error *)
  if p50 < 0.4 || p50 > 0.62 then Alcotest.failf "p50 out of tolerance: %g" p50;
  let p99 = Stats.Histogram.quantile h 0.99 in
  if p99 < 0.85 || p99 > 1.25 then Alcotest.failf "p99 out of tolerance: %g" p99;
  Alcotest.(check (float 0.002)) "mean exact (tracked separately)" 0.5005 (Stats.Histogram.mean h)

let test_histogram_edges () =
  let h = Stats.Histogram.create () in
  Alcotest.(check (float 0.)) "quantile of empty" 0. (Stats.Histogram.quantile h 0.5);
  Stats.Histogram.add h 0.;
  Stats.Histogram.add h 1e-9;
  Alcotest.(check int) "zeros counted" 2 (Stats.Histogram.count h);
  Alcotest.(check bool) "underflow quantile small" true (Stats.Histogram.quantile h 0.9 <= 1e-6);
  Stats.Histogram.add h 1e12;
  Alcotest.(check bool) "overflow finite estimate" true (Stats.Histogram.quantile h 1.0 < infinity);
  Alcotest.check_raises "bad quantile" (Invalid_argument "Histogram.quantile: q must be in [0, 1]")
    (fun () -> ignore (Stats.Histogram.quantile h 1.5))

let test_histogram_merge () =
  let samples_a = [ 0.001; 0.02; 0.3 ] and samples_b = [ 0.004; 4.; 1e-9 ] in
  let direct = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add direct) (samples_a @ samples_b);
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add a) samples_a;
  List.iter (Stats.Histogram.add b) samples_b;
  Stats.Histogram.merge a b;
  Alcotest.(check int) "count" (Stats.Histogram.count direct) (Stats.Histogram.count a);
  Alcotest.(check (float 1e-12)) "exact sum carried" (Stats.Histogram.sum direct)
    (Stats.Histogram.sum a);
  Alcotest.(check (float 1e-12)) "p90 matches direct fill" (Stats.Histogram.quantile direct 0.9)
    (Stats.Histogram.quantile a 0.9);
  Alcotest.(check int) "source untouched" (List.length samples_b) (Stats.Histogram.count b)

(* The histogram's one layout: 128 buckets from 1e-6, ratio 1.2. *)
let least = 1e-6
let growth = 1.2
let buckets = 128
let edge k = least *. Float.pow growth (float_of_int k)

(* The reference: the bucket index as it was computed while the layout was
   a parameter, with both neighbouring edges from [Float.pow]. *)
let reference_bucket_index x =
  if x < least then 0
  else begin
    let raw = log (x /. least) /. log growth in
    let i = Int.max 1 (int_of_float (Float.floor raw) + 1) in
    if i > buckets then buckets + 1
    else begin
      let i = if x >= edge i then i + 1 else i in
      if i > buckets then buckets + 1 else if i > 1 && x < edge (i - 1) then i - 1 else i
    end
  end

let test_histogram_bucket_edges () =
  (* exact bucket edges x = least and x = least * growth^k are where the
     log-ratio rounding can misplace samples; pin the half-open layout *)
  Alcotest.(check int) "just below least -> underflow" 0
    (Stats.Histogram.bucket_index (least *. (1. -. 1e-12)));
  Alcotest.(check int) "x = least -> first bucket" 1 (Stats.Histogram.bucket_index least);
  List.iter
    (fun k ->
      let x = edge k in
      Alcotest.(check int)
        (Printf.sprintf "x = least*growth^%d opens bucket %d" k (k + 1))
        (k + 1) (Stats.Histogram.bucket_index x);
      Alcotest.(check int)
        (Printf.sprintf "just below the growth^%d edge stays in bucket %d" k k)
        k
        (Stats.Histogram.bucket_index (x *. (1. -. 1e-12))))
    [ 1; 2; 5; 17; 64; 127 ];
  Alcotest.(check int) "top edge -> overflow" (buckets + 1)
    (Stats.Histogram.bucket_index (edge buckets))

(* The index reads its edges from the precomputed bounds and takes one log;
   it must place every sample where the [Float.pow] reference does: on
   every edge, one ulp either side of it, at zero, past the last bound and
   on 10^5 seeded values spread log-uniformly over 14 decades.  At two of
   these points the reference is wrong and the index is not, and the index
   must give the right bucket:
   - one ulp below the last bound, where the log ratio rounds up to 128 and
     the reference sends the sample to the overflow bucket before its
     nudge could bring it back: bucket 128;
   - [max_float], where [x /. least] overflows to infinity, whose
     [int_of_float] is [min_int], so the reference lands in bucket 2: the
     overflow bucket. *)
let test_histogram_bucket_index_reference () =
  let corrected = [ (Float.pred (edge buckets), buckets); (Float.max_float, buckets + 1) ] in
  let agree what x =
    let want =
      match List.assoc_opt x corrected with Some i -> i | None -> reference_bucket_index x
    and got = Stats.Histogram.bucket_index x in
    if got <> want then Alcotest.failf "%s: x = %h lands in bucket %d, reference %d" what x got want
  in
  for k = 0 to buckets do
    let x = edge k in
    agree (Printf.sprintf "edge %d" k) x;
    agree (Printf.sprintf "edge %d - 1 ulp" k) (Float.pred x);
    agree (Printf.sprintf "edge %d + 1 ulp" k) (Float.succ x)
  done;
  List.iter (agree "zero and beyond") [ 0.; -0.; -1.; edge buckets *. 10.; 1e12; Float.max_float ];
  let rng = Random.State.make [| 27 |] in
  for _ = 1 to 100_000 do
    agree "random" (Float.pow 10. (Random.State.float rng 14. -. 9.))
  done

(* The inputs the reference misplaces: infinity and [max_float] belong to
   the overflow bucket (the reference's [int_of_float] of an infinite
   ratio put them in bucket 2), a NaN has no bucket and is refused (the
   reference put it in bucket 1), and the largest value below the last
   bound stays in bucket 128 (the reference sent it to the overflow
   bucket). *)
let test_histogram_bucket_index_extremes () =
  Alcotest.(check int) "infinity -> overflow" (buckets + 1)
    (Stats.Histogram.bucket_index infinity);
  Alcotest.(check int) "max_float -> overflow" (buckets + 1)
    (Stats.Histogram.bucket_index Float.max_float);
  Alcotest.(check int) "-infinity -> underflow" 0 (Stats.Histogram.bucket_index neg_infinity);
  Alcotest.(check int) "last bound - 1 ulp -> bucket 128" buckets
    (Stats.Histogram.bucket_index (Float.pred (edge buckets)));
  Alcotest.check_raises "NaN refused" (Invalid_argument "Histogram.bucket_index: NaN") (fun () ->
      ignore (Stats.Histogram.bucket_index Float.nan));
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "add NaN refused" (Invalid_argument "Histogram.bucket_index: NaN")
    (fun () -> Stats.Histogram.add h Float.nan);
  Alcotest.(check int) "a refused add counts nothing" 0 (Stats.Histogram.count h);
  Stats.Histogram.add h infinity;
  Alcotest.(check int) "infinity counted" 1 (Stats.Histogram.count h)

let test_histogram_overflow_quantile () =
  (* all mass in the overflow bucket: the quantile is interpolated inside
     it, never a synthetic bound past the data *)
  let h = Stats.Histogram.create () in
  let overflow_lo = edge buckets in
  for _ = 1 to 5 do
    Stats.Histogram.add h 1e12
  done;
  List.iter
    (fun q ->
      let v = Stats.Histogram.quantile h q in
      if v < overflow_lo -. 1e-12 || v > overflow_lo *. growth +. 1e-12 then
        Alcotest.failf "q=%g estimate %g outside the overflow bucket [%g, %g]" q v overflow_lo
          (overflow_lo *. growth))
    [ 0.5; 0.99; 1.0 ]

let test_histogram_summary () =
  (* empty: every summary field is zero *)
  let empty = Stats.Histogram.summary (Stats.Histogram.create ()) in
  Alcotest.(check int) "empty count" 0 empty.Stats.Histogram.s_count;
  Alcotest.(check (float 0.)) "empty sum" 0. empty.Stats.Histogram.s_sum;
  Alcotest.(check (float 0.)) "empty p99.9" 0. empty.Stats.Histogram.s_p999;
  let h = Stats.Histogram.create () in
  for i = 1 to 10_000 do
    Stats.Histogram.add h (float_of_int i /. 10_000.)
  done;
  let s = Stats.Histogram.summary h in
  Alcotest.(check int) "count" 10_000 s.Stats.Histogram.s_count;
  Alcotest.(check (float 1e-6)) "sum exact" 5000.5 s.Stats.Histogram.s_sum;
  Alcotest.(check (float 1e-6)) "mean = sum/count" (Stats.Histogram.mean h)
    s.Stats.Histogram.s_mean;
  (* quantile fields agree with the direct calls, and p99.9 resolves the
     tail p99 cannot: it must sit strictly above p99 here *)
  List.iter
    (fun (name, q, field) ->
      Alcotest.(check (float 1e-12)) name (Stats.Histogram.quantile h q) field)
    [
      ("p50", 0.5, s.Stats.Histogram.s_p50);
      ("p90", 0.9, s.Stats.Histogram.s_p90);
      ("p99", 0.99, s.Stats.Histogram.s_p99);
      ("p99.9", 0.999, s.Stats.Histogram.s_p999);
    ];
  if not (s.Stats.Histogram.s_p999 > s.Stats.Histogram.s_p99) then
    Alcotest.failf "p99.9 (%g) should exceed p99 (%g)" s.Stats.Histogram.s_p999
      s.Stats.Histogram.s_p99;
  if s.Stats.Histogram.s_p999 < 0.8 || s.Stats.Histogram.s_p999 > 1.25 then
    Alcotest.failf "p99.9 out of tolerance: %g" s.Stats.Histogram.s_p999

let test_histogram_summary_bucket_edges () =
  (* a thousand samples pinned on one exact bucket edge: the p99.9 walk
     must interpolate inside that bucket, not fall off an edge *)
  let h = Stats.Histogram.create () in
  let edge = edge 17 in
  for _ = 1 to 1000 do
    Stats.Histogram.add h edge
  done;
  let s = Stats.Histogram.summary h in
  let lo = edge and hi = edge *. growth in
  List.iter
    (fun (name, v) ->
      if v < lo -. 1e-18 || v > hi +. 1e-18 then
        Alcotest.failf "%s estimate %g outside the edge bucket [%g, %g]" name v lo hi)
    [ ("p50", s.Stats.Histogram.s_p50); ("p99", s.Stats.Histogram.s_p99);
      ("p99.9", s.Stats.Histogram.s_p999) ];
  Alcotest.(check (float 1e-9)) "sum is exact at the edge" (1000. *. edge)
    s.Stats.Histogram.s_sum;
  (* a couple of stragglers in the overflow bucket are what p99.9 exists
     to see: p99 stays in the edge bucket while p99.9 reaches the
     overflow (with 1000 edge samples + 2 outliers the 0.999 target index
     is 1001.998, inside the overflow bucket) *)
  Stats.Histogram.add h 1e9;
  Stats.Histogram.add h 1e9;
  let s' = Stats.Histogram.summary h in
  if not (s'.Stats.Histogram.s_p99 <= hi +. 1e-18) then
    Alcotest.failf "p99 moved to %g; should stay within the edge bucket" s'.Stats.Histogram.s_p99;
  if not (s'.Stats.Histogram.s_p999 > hi) then
    Alcotest.failf "p99.9 (%g) should land past the edge bucket with 2/1002 outliers"
      s'.Stats.Histogram.s_p999

let test_series () =
  let s = Stats.Series.create ~label:"load" in
  Stats.Series.add s ~x:0. ~y:1.;
  Stats.Series.add s ~x:10. ~y:0.1;
  Alcotest.(check int) "length" 2 (Stats.Series.length s);
  Alcotest.(check (option (float 1e-9))) "y_at hit" (Some 0.1) (Stats.Series.y_at s ~x:10.);
  Alcotest.(check (option (float 1e-9))) "y_at miss" None (Stats.Series.y_at s ~x:5.);
  let doubled = Stats.Series.map_y s ~f:(fun y -> 2. *. y) in
  Alcotest.(check (option (float 1e-9))) "map_y" (Some 0.2) (Stats.Series.y_at doubled ~x:10.);
  Alcotest.(check string) "label preserved" "load" (Stats.Series.label doubled)

(* Sampler-style append patterns: one point per fixed-width window, many
   short windows, empty windows recorded as zero, and a window boundary
   landing exactly on an event instant (duplicate x appended twice). *)
let test_series_window_appends () =
  let s = Stats.Series.create ~label:"msgs/s" in
  let n = 200 in
  let interval = 0.5 in
  for k = 1 to n do
    let y = if k mod 3 = 0 then 0. else float_of_int (k mod 7) in
    Stats.Series.add s ~x:(float_of_int k *. interval) ~y
  done;
  Alcotest.(check int) "one point per window" n (Stats.Series.length s);
  let xs = List.map fst (Stats.Series.points s) in
  let sorted = List.sort compare xs in
  Alcotest.(check (list (float 1e-12))) "insertion order is time order" sorted xs;
  Alcotest.(check (option (float 1e-12))) "empty window recorded, not skipped" (Some 0.)
    (Stats.Series.y_at s ~x:(3. *. interval));
  Alcotest.(check (option (float 1e-12))) "boundary window value exact" (Some (float_of_int (199 mod 7)))
    (Stats.Series.y_at s ~x:(199. *. interval));
  (* a sample replayed at an already-recorded boundary instant appends
     rather than overwrites; y_at reports the first *)
  Stats.Series.add s ~x:(100. *. interval) ~y:42.;
  Alcotest.(check int) "duplicate x retained" (n + 1) (Stats.Series.length s);
  Alcotest.(check (option (float 1e-12))) "first recording wins lookup"
    (Some (float_of_int (100 mod 7)))
    (Stats.Series.y_at s ~x:(100. *. interval))

let test_table_many_windows () =
  let mk label f =
    let s = Stats.Series.create ~label in
    for k = 1 to 50 do
      (* the second series misses every 5th window, as a gauge that was
         not sampled during an outage would *)
      if not (f && k mod 5 = 0) then Stats.Series.add s ~x:(float_of_int k) ~y:(float_of_int k)
    done;
    s
  in
  let table =
    Stats.Table.of_series ~x_label:"t" ~x_format:(Printf.sprintf "%g")
      ~y_format:(Printf.sprintf "%g")
      [ mk "full" false; mk "gappy" true ]
  in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' table) in
  Alcotest.(check int) "header + rule + one row per window" 52 (List.length lines)

let test_table_render () =
  let table =
    Stats.Table.render ~header:[ "a"; "bbb" ] ~rows:[ [ "1"; "2" ]; [ "10"; "20" ]; [ "x" ] ]
  in
  let lines = String.split_on_char '\n' table in
  Alcotest.(check int) "header + rule + 3 rows" 5 (List.length lines);
  (match lines with
  | header :: rule :: _ ->
    Alcotest.(check bool) "rule dashes" true (String.for_all (fun c -> c = '-' || c = ' ') rule);
    Alcotest.(check bool) "header contains both columns" true
      (String.length header >= String.length "a   bbb")
  | _ -> Alcotest.fail "too few lines");
  (* ragged row padded, no trailing spaces *)
  List.iter
    (fun line ->
      if String.length line > 0 && line.[String.length line - 1] = ' ' then
        Alcotest.failf "trailing space in %S" line)
    lines

let test_table_of_series () =
  let a = Stats.Series.create ~label:"a" in
  let b = Stats.Series.create ~label:"b" in
  Stats.Series.add a ~x:1. ~y:10.;
  Stats.Series.add a ~x:2. ~y:20.;
  Stats.Series.add b ~x:2. ~y:200.;
  let table =
    Stats.Table.of_series ~x_label:"x" ~x_format:(Printf.sprintf "%g")
      ~y_format:(Printf.sprintf "%g") [ a; b ]
  in
  let lines = String.split_on_char '\n' table in
  Alcotest.(check int) "x union rows" 4 (List.length lines);
  Alcotest.(check bool) "missing cell left empty" true
    (String.length (List.nth lines 2) < String.length (List.nth lines 3) + 5)

let () =
  Alcotest.run "stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "edges" `Quick test_histogram_edges;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "bucket index = reference" `Quick test_histogram_bucket_index_reference;
          Alcotest.test_case "bucket index extremes" `Quick test_histogram_bucket_index_extremes;
          Alcotest.test_case "overflow quantile" `Quick test_histogram_overflow_quantile;
          Alcotest.test_case "summary" `Quick test_histogram_summary;
          Alcotest.test_case "summary bucket edges" `Quick test_histogram_summary_bucket_edges;
        ] );
      ( "series+table",
        [
          Alcotest.test_case "series" `Quick test_series;
          Alcotest.test_case "series window appends" `Quick test_series_window_appends;
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "table of series" `Quick test_table_of_series;
          Alcotest.test_case "table many windows" `Quick test_table_many_windows;
        ] );
    ]
