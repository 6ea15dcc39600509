(* One bucket layout for every histogram: geometric buckets from [least]
   with ratio [growth].  Every caller used these values, so the bounds are
   computed once, here, and [merge] needs no layout check. *)
let least = 1e-6
let growth = 1.2
let buckets = 128

(* [bounds.(i)] is the upper bound of bucket [i + 1], exclusive:
   [least * growth^(i+1)]. *)
let bounds = Array.init buckets (fun i -> least *. Float.pow growth (float_of_int (i + 1)))
let log_growth = log growth
let last_bound = bounds.(buckets - 1)

(* The running sum sits alone in an all-float record, so it is stored
   unboxed and an [add] allocates nothing. *)
type acc = { mutable sum : float }

type t = {
  counts : int array; (* length = buckets + 2: under- and overflow *)
  mutable total_count : int;
  acc : acc;
}

let create () = { counts = Array.make (buckets + 2) 0; total_count = 0; acc = { sum = 0. } }

let bucket_lo i = if i <= 1 then 0. else bounds.(i - 2)
let bucket_hi i = if i = 0 then least else if i > buckets then infinity else bounds.(i - 1)

(* Bucket index layout: 0 = underflow (< least), 1..buckets = geometric
   buckets, buckets+1 = overflow (>= the last bound, infinity included).
   Bucket i covers [bucket_lo i, bucket_hi i).  The log ratio can round
   either way when x sits exactly on a bucket edge (x = least, x = least *
   growth^k), so the initial estimate, clamped into the geometric buckets,
   is nudged until x actually falls inside the bucket's half-open interval;
   both neighbouring edges come from [bounds].  A NaN has no bucket.
   [bucket_index] and [add] are inlined into their callers, so a sample
   computed there reaches the counts and the sum unboxed: a float passed
   to a call is boxed. *)
let[@inline] bucket_index x =
  if x < least then 0
  else if x >= last_bound then buckets + 1
  else if Float.is_nan x then invalid_arg "Histogram.bucket_index: NaN"
  else begin
    let raw = log (x /. least) /. log_growth in
    let i = Int.max 1 (Int.min buckets (int_of_float (Float.floor raw) + 1)) in
    (* x is below the last bound, so a nudge up stays within [buckets] *)
    let i = if x >= bounds.(i - 1) then i + 1 else i in
    if i > 1 && x < bounds.(i - 2) then i - 1 else i
  end

let[@inline] add t x =
  let i = bucket_index x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total_count <- t.total_count + 1;
  t.acc.sum <- t.acc.sum +. x

let count t = t.total_count
let sum t = t.acc.sum

let merge t other =
  Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) other.counts;
  t.total_count <- t.total_count + other.total_count;
  t.acc.sum <- t.acc.sum +. other.acc.sum

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Histogram.quantile: q must be in [0, 1]";
  if t.total_count = 0 then 0.
  else begin
    let target = q *. float_of_int t.total_count in
    let interpolate i ~seen =
      let lo = bucket_lo i in
      let hi = bucket_hi i in
      let hi = if hi = infinity then lo *. growth else hi in
      let within = (target -. seen) /. float_of_int t.counts.(i) in
      lo +. ((hi -. lo) *. Float.max 0. (Float.min 1. within))
    in
    (* [last] tracks the highest non-empty bucket visited so far: if float
       accumulation lets the walk run off the end (seen never quite reaches
       target), the answer is the top of that bucket, interpolated like any
       other — not a synthetic bound past the data. *)
    let rec walk i seen last =
      if i >= Array.length t.counts then
        match last with Some (j, seen_j) -> interpolate j ~seen:seen_j | None -> 0.
      else begin
        let seen' = seen +. float_of_int t.counts.(i) in
        if seen' >= target && t.counts.(i) > 0 then interpolate i ~seen
        else walk (i + 1) seen' (if t.counts.(i) > 0 then Some (i, seen) else last)
      end
    in
    walk 0 0. None
  end

let mean t = if t.total_count = 0 then 0. else t.acc.sum /. float_of_int t.total_count

type summary = {
  s_count : int;
  s_sum : float;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_p999 : float;
}

let summary t =
  {
    s_count = t.total_count;
    s_sum = t.acc.sum;
    s_mean = mean t;
    s_p50 = quantile t 0.5;
    s_p90 = quantile t 0.9;
    s_p99 = quantile t 0.99;
    s_p999 = quantile t 0.999;
  }

let pp ppf t =
  Format.fprintf ppf "n=%d mean=%.6g p50=%.6g p90=%.6g p99=%.6g p99.9=%.6g sum=%.6g"
    t.total_count (mean t) (quantile t 0.5) (quantile t 0.9) (quantile t 0.99)
    (quantile t 0.999) t.acc.sum
