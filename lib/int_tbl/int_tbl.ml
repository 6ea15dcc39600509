module type S = sig
  type key
  type 'a t

  val create : int -> 'a t
  val find : 'a t -> key -> 'a
  val find_opt : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val find_or : 'a t -> key -> 'a -> 'a
  val replace : 'a t -> key -> 'a -> unit
  val add : 'a t -> key -> 'a -> unit
  val remove : 'a t -> key -> unit
  val length : 'a t -> int
  val reset : 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  val iter : (key -> 'a -> unit) -> 'a t -> unit
end

type key = int

(* Slot [i] is empty when [keys.(i) = free], bound to [vals.(i)] otherwise.
   [vals] has one cell more than [keys]: the last one holds a value of the
   table's type (the first one inserted since allocation), which a removal
   writes into the slot it frees so that removed values are not kept
   alive.  Both arrays are [[||]] until the first insert, and the keys'
   length is a power of two, at least twice [size]: probe runs stay short
   and always end at an empty slot. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable shift : int;  (** [Sys.int_size - log2 (Array.length keys)] *)
  initial : int;  (** capacity of the first allocation, a power of two *)
}

let free = -1

(* Fibonacci hashing: multiply by the odd integer nearest 2^63 / golden
   ratio and keep the top bits, so consecutive ids land far apart instead of
   forming one long probe run. *)
let golden = 0x4F1B_BCDC_BFA5_3E0B
let home t (k : int) = (k * golden) lsr t.shift

let rec pow2_above n c = if c >= n then c else pow2_above n (2 * c)
let create n = { keys = [||]; vals = [||]; size = 0; shift = 0; initial = pow2_above n 8 }

let length t = t.size

let rec log2 c b = if c = 1 then b else log2 (c lsr 1) (b + 1)

let alloc t cap filler =
  t.keys <- Array.make cap free;
  t.vals <- Array.make (cap + 1) filler;
  t.shift <- Sys.int_size - log2 cap 0

(* Probe loops are top-level functions over their arguments: a local
   closure over the arrays would be allocated on every lookup. *)
let rec probe_bound keys mask (k : int) i =
  let k' = Array.unsafe_get keys i in
  if k' = k then i else if k' = free then -1 else probe_bound keys mask k ((i + 1) land mask)

let rec probe_slot keys mask (k : int) i =
  let k' = Array.unsafe_get keys i in
  if k' = k || k' = free then i else probe_slot keys mask k ((i + 1) land mask)

(* The slot holding [k], or -1. *)
let index t (k : int) =
  if t.size = 0 || k < 0 then -1
  else probe_bound t.keys (Array.length t.keys - 1) k (home t k)

(* The slot holding [k], or the empty slot that ends its run. *)
let slot_for t (k : int) = probe_slot t.keys (Array.length t.keys - 1) k (home t k)

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = Array.length keys in
  alloc t (2 * cap) (Array.unsafe_get vals cap);
  for i = 0 to cap - 1 do
    let k = Array.unsafe_get keys i in
    if k <> free then begin
      let j = slot_for t k in
      Array.unsafe_set t.keys j k;
      Array.unsafe_set t.vals j (Array.unsafe_get vals i)
    end
  done

let replace t k v =
  if k < 0 then invalid_arg "Int_tbl.replace: negative key";
  if Array.length t.keys = 0 then alloc t t.initial v;
  let i = slot_for t k in
  if Array.unsafe_get t.keys i = k then Array.unsafe_set t.vals i v
  else begin
    let i =
      if 2 * (t.size + 1) > Array.length t.keys then begin
        grow t;
        slot_for t k
      end
      else i
    in
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    t.size <- t.size + 1
  end

let add = replace

let find t k =
  let i = index t k in
  if i < 0 then raise Not_found else Array.unsafe_get t.vals i

let find_opt t k =
  let i = index t k in
  if i < 0 then None else Some (Array.unsafe_get t.vals i)

let mem t k = index t k >= 0

let find_or t k default =
  let i = index t k in
  if i < 0 then default else Array.unsafe_get t.vals i

(* Backward-shift deletion: walk the run after the freed slot and move back
   every entry whose home lies cyclically at or before the hole, so that no
   probe for a remaining key crosses an empty slot. *)
let rec close t keys vals mask hole j =
  let kj = Array.unsafe_get keys j in
  if kj = free then begin
    Array.unsafe_set keys hole free;
    Array.unsafe_set vals hole (Array.unsafe_get vals (mask + 1))
  end
  else if (j - home t kj) land mask >= (j - hole) land mask then begin
    Array.unsafe_set keys hole kj;
    Array.unsafe_set vals hole (Array.unsafe_get vals j);
    close t keys vals mask j ((j + 1) land mask)
  end
  else close t keys vals mask hole ((j + 1) land mask)

let remove t k =
  let i = index t k in
  if i >= 0 then begin
    let mask = Array.length t.keys - 1 in
    close t t.keys t.vals mask i ((i + 1) land mask);
    t.size <- t.size - 1
  end

(* Like [Hashtbl.reset]: a table at its initial capacity is emptied in
   place, a grown one drops its arrays and allocates afresh on its next
   insert. *)
let reset t =
  let cap = Array.length t.keys in
  if cap > t.initial then begin
    t.keys <- [||];
    t.vals <- [||]
  end
  else if t.size > 0 then begin
    Array.fill t.keys 0 cap free;
    Array.fill t.vals 0 cap (Array.unsafe_get t.vals cap)
  end;
  t.size <- 0

let fold f t init =
  let keys = t.keys and vals = t.vals in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> free then acc := f k (Array.unsafe_get vals i) !acc
  done;
  !acc

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> free then f k (Array.unsafe_get vals i)
  done
