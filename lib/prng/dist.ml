(* [exponential] and [pareto], drawn per arrival by the generators, are
   inlined into their callers: a float returned from a call is boxed. *)
let[@inline] exponential rng ~mean =
  if mean <= 0. then invalid_arg "Dist.exponential: mean must be positive";
  let u = 1. -. Splitmix.float rng in
  -.mean *. log u

let geometric rng ~p =
  if p <= 0. || p > 1. then invalid_arg "Dist.geometric: p must be in (0, 1]";
  if p = 1. then 1
  else begin
    let u = 1. -. Splitmix.float rng in
    1 + int_of_float (log u /. log (1. -. p))
  end

let uniform rng ~lo ~hi = lo +. ((hi -. lo) *. Splitmix.float rng)

module Zipf_table = struct
  type t = float array (* the CDF over ranks; its last value is exactly 1 *)

  let create ~n ~s =
    if n <= 0 then invalid_arg "Zipf_table.create: n must be positive";
    if s < 0. then invalid_arg "Zipf_table.create: s must be non-negative";
    let weights = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s) in
    let total = Array.fold_left ( +. ) 0. weights in
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (weights.(i) /. total);
      cdf.(i) <- !acc
    done;
    cdf.(n - 1) <- 1.;
    cdf

  (* Binary search for the first rank whose CDF value exceeds [u], in a
     loop: a local recursive search would allocate its closure per draw. *)
  let draw cdf rng =
    let u = Splitmix.float rng in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get cdf mid > u then hi := mid else lo := mid + 1
    done;
    !lo
end

let[@inline] pareto rng ~shape ~scale =
  if shape <= 0. then invalid_arg "Dist.pareto: shape must be positive";
  if scale <= 0. then invalid_arg "Dist.pareto: scale must be positive";
  let u = 1. -. Splitmix.float rng in
  scale /. Float.pow u (1. /. shape)
