open Simtime

type term = Finite of Time.Span.t | Infinite

type grant = { term : term }

(* An expiry is its deadline's microsecond count on the clock that holds it
   ([Time] is microseconds in an int63), or [never] = [max_int], which no
   simulated clock reaches.  Being an int, it is stored into long-lived
   records with a plain write (no boxed deadline to promote, no write
   barrier), and ordered by one machine compare; [never] is the largest
   value, so [Int.max] and [Int.min] are the expiry max and min. *)
type expiry = int

let term_zero = Finite Time.Span.zero

let term_of_sec s =
  if s < 0. then invalid_arg "Lease.term_of_sec: negative term";
  Finite (Time.Span.of_sec s)

let term_is_zero = function
  | Finite span -> Time.Span.equal span Time.Span.zero
  | Infinite -> false

let compare_term a b =
  match a, b with
  | Finite a, Finite b -> Time.Span.compare a b
  | Finite _, Infinite -> -1
  | Infinite, Finite _ -> 1
  | Infinite, Infinite -> 0

let never = max_int
let at deadline = Time.to_us deadline
let is_never (e : expiry) = e = never
let deadline e = if is_never e then None else Some (Time.of_us e)
let expiry_sec e = if is_never e then None else Some (Time.to_sec (Time.of_us e))

let server_expiry term ~granted_at =
  match term with
  | Infinite -> never
  | Finite span -> at (Time.add granted_at span)

let client_expiry term ~received_at ~transit_allowance ~skew_allowance =
  match term with
  | Infinite -> never
  | Finite span ->
    let effective =
      Time.Span.clamp_non_negative
        (Time.Span.sub (Time.Span.sub span transit_allowance) skew_allowance)
    in
    at (Time.add received_at effective)

let expired (e : expiry) ~now = e <= Time.to_us now
let expiry_max (a : expiry) b = Int.max a b
let expiry_min (a : expiry) b = Int.min a b
let unsafe_get_expiry (a : int array) i : expiry = Array.unsafe_get a i
let unsafe_set_expiry (a : int array) i (e : expiry) = Array.unsafe_set a i e

