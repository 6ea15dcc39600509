(* Instants and spans are native ints (microseconds).  An int is 63 bits
   on every platform this simulator targets, so the range is ~±146k years
   around the epoch — far beyond any run — while staying unboxed: time
   values are immediates, so the event queue compares deadlines without a
   pointer chase and the hot paths (clock reads, deadline arithmetic, heap
   sifts) allocate nothing.  The previous [int64] representation boxed
   every arithmetic result, which accounted for a large share of the
   simulator's per-event allocation and cache traffic. *)
type t = int
type span = int

let zero = 0
let add = ( + )
let diff = ( - )
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : int) b = Stdlib.( <= ) a b
let ( < ) (a : int) b = Stdlib.( < ) a b
let ( >= ) (a : int) b = Stdlib.( >= ) a b
let ( > ) (a : int) b = Stdlib.( > ) a b
(* Written out rather than [Stdlib.min]/[max]: those are polymorphic and
   compare through the C [caml_lessequal]/[caml_greaterequal] even on ints. *)
let min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b

let us_per_sec = 1_000_000.

(* [int_of_float] on NaN or an out-of-range float is unspecified (and in
   practice yields 0 or min_int), which would silently turn a garbage
   span — a NaN [--term], an overflowing product — into a zero-term run.
   The valid magnitude bound is one µs short of [max_int]; comparing the
   rounded value against [float_of_int max_int] (= 2^62, the first float
   past the representable range on 64-bit) rejects exactly the values
   [int_of_float] cannot faithfully convert. *)
let of_sec s =
  let us = s *. us_per_sec in
  if not (Float.is_finite us) then
    invalid_arg (Printf.sprintf "Time.of_sec: non-finite span %h s" s)
  else begin
    let r = Float.round us in
    if Stdlib.( >= ) (Float.abs r) (float_of_int max_int) then
      invalid_arg (Printf.sprintf "Time.of_sec: %g s overflows the microsecond range" s)
    else int_of_float r
  end
let to_sec t = float_of_int t /. us_per_sec
let of_us (us : int) : t = us
let to_us (t : t) : int = t
let pp ppf t = Format.fprintf ppf "%.6fs" (to_sec t)

module Span = struct
  type t = span

  let zero = 0
  let of_sec = of_sec
  let to_sec = to_sec
  let of_ms ms = of_sec (ms /. 1000.)
  let to_ms t = to_sec t *. 1000.
  let of_us = of_us
  let to_us = to_us
  let add = ( + )
  let sub = ( - )
  let neg a = -a
  (* Identity scale stays on the int path: spans are < 2^53 us in practice,
     but skipping the float round-trip makes that exactness unconditional —
     and the backoff path scales by 1.0 on every first retransmission arm. *)
  let scale f t = if f = 1. then t else int_of_float (Float.round (f *. float_of_int t))
  let compare = Int.compare
  let equal = Int.equal
  let ( <= ) (a : int) b = Stdlib.( <= ) a b
  let ( < ) (a : int) b = Stdlib.( < ) a b
  let ( >= ) (a : int) b = Stdlib.( >= ) a b
  let ( > ) (a : int) b = Stdlib.( > ) a b
  let min (a : int) b = if a <= b then a else b
  let max (a : int) b = if a >= b then a else b
  let is_negative t = t < zero
  let clamp_non_negative t = max zero t
  let since_epoch t = t
  let pp ppf t = Format.fprintf ppf "%.6fs" (to_sec t)
end
