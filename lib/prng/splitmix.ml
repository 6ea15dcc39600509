(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field
   would hold a pointer to a boxed [Int64], and every draw would allocate
   the new box.  Loads and stores go through the unchecked primitives, so
   a draw reads the state, mixes it in registers and writes it back. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] create ~seed =
  let t = Bytes.create 8 in
  set t 0 seed;
  t

(* The splitmix64 output function (Steele, Lea & Flood 2014).  Without
   flambda, Int64 intermediates are only unboxed within one function body,
   so the chain stays straight-line here and [next_int64] and [float] are
   inlined into their callers, where the result is consumed unboxed. *)
let[@inline] next_int64 t =
  let s = Int64.add (get t 0) golden_gamma in
  set t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create ~seed:(next_int64 t)

let[@inline] float t =
  (* 53 uniform bits mapped to [0, 1). *)
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) *. 0x1.0p-53

(* Rejection sampling over the top bits avoids modulo bias. *)
let rec below t bound =
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  let value = bits mod bound in
  if bits - value + (bound - 1) >= 0 then value else below t bound

let int t ~bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  below t bound

let bool t ~p = float t < p
