module Host_id = Host.Host_id
module File_id = Vstore.File_id
open Simtime

(* Expiries are stored as server-clock microseconds.  [never] stands for
   [Lease.Never] and doubles as the "no finite expiry resident" sentinel:
   no simulated clock reaches it (Time is microseconds in an int63). *)
let never = max_int

let us_of_expiry = function Lease.At at -> Time.to_us at | Lease.Never -> never
let expiry_of_us us = if us = never then Lease.Never else Lease.At (Time.of_us us)

(* Holders of a promoted slot.  [tbl] maps each holder to its expiry; the
   heap holds (expiry, holder) entries in two parallel arrays, a min-heap
   on that pair.  Every live finite record has an entry carrying its
   current expiry; deletion is lazy, so a re-record or a removal leaves the
   old entry behind as a {e stale} one, recognised when popped because the
   table no longer maps its holder to its expiry.  Stale entries are
   bounded: once the heap holds more than twice the live records plus 8, it
   is rebuilt from the table. *)
type shared = {
  tbl : int Host_id.Tbl.t;
  mutable heap_at : int array;
  mutable heap_holder : int array;  (** [Host_id.to_int] of the holder *)
  mutable heap_len : int;
}

(* Resident records of one file.  Most files only ever see a single holder
   (private and temporary files dominate real traces), so the single-record
   case is stored inline — three words, no hash table — and a slot is only
   promoted to [Many] when a second distinct holder shows up.  A promoted
   slot never demotes: shared files stay shared. *)
type holders =
  | No_holder
  | One of { holder : Host_id.t; mutable h_expiry : int }
  | Many of shared

(* Per-file slot.  [holders] contains only records that have not been
   reaped yet; [min_next] is a lower bound on the earliest finite expiry
   among them (monotone under [record], exact after a reap).  When the
   server clock passes [min_next] the slot is reaped on the next access, so
   every aggregate below runs over records that are live *now* — the cost
   of a grant tracks live sharing, not the file's lifetime holder
   history. *)
type slot = {
  mutable holders : holders;
  mutable min_next : int;
}

type t = {
  mutable slots : slot option array;  (** indexed by [File_id.to_int] *)
  mutable files : int;  (** slots with at least one resident record *)
  mutable records : int;  (** resident records across all slots *)
  mutable reaped_total : int;  (** lifetime reaped records, never reset *)
  mutable on_reap : File_id.t -> Host_id.t -> Lease.expiry -> unit;
      (** called once per reaped record, inside the reap pass: must not
          re-enter the table.  Installed by the server to emit
          [lease-expire] trace events; default [ignore]. *)
}

let create () =
  { slots = [||]; files = 0; records = 0; reaped_total = 0; on_reap = (fun _ _ _ -> ()) }

let set_on_reap t f = t.on_reap <- f

let holders_len = function
  | No_holder -> 0
  | One _ -> 1
  | Many s -> Host_id.Tbl.length s.tbl

let ensure t idx =
  let cap = Array.length t.slots in
  if idx >= cap then begin
    let cap' = Int.max 16 (Int.max (idx + 1) (2 * cap)) in
    let slots' = Array.make cap' None in
    Array.blit t.slots 0 slots' 0 cap;
    t.slots <- slots'
  end

let slot_opt t file =
  let idx = File_id.to_int file in
  if idx < Array.length t.slots then t.slots.(idx) else None

(* --- the expiry heap of a shared slot -------------------------------- *)

(* Entries are ordered by (expiry, holder), a total order on distinct
   records, so the pop order — and with it the order of [lease-expire]
   events — does not depend on heap layout or on the table's hash. *)
let entry_before at h at' h' = at < at' || (at = at' && h < h')

(* Place (at, h) in the hole at [i], moving larger parents down.  Indices
   below [heap_len] are in bounds by construction, so the sifts read and
   write the arrays unchecked. *)
let rec sift_up s i at h =
  let parent = (i - 1) / 2 in
  if
    i > 0
    && entry_before at h (Array.unsafe_get s.heap_at parent) (Array.unsafe_get s.heap_holder parent)
  then begin
    Array.unsafe_set s.heap_at i (Array.unsafe_get s.heap_at parent);
    Array.unsafe_set s.heap_holder i (Array.unsafe_get s.heap_holder parent);
    sift_up s parent at h
  end
  else begin
    Array.unsafe_set s.heap_at i at;
    Array.unsafe_set s.heap_holder i h
  end

(* Place (at, h) in the hole at [i], moving smaller children up. *)
let rec sift_down s i at h =
  let left = (2 * i) + 1 in
  let child =
    if left + 1 < s.heap_len
       && entry_before
            (Array.unsafe_get s.heap_at (left + 1))
            (Array.unsafe_get s.heap_holder (left + 1))
            (Array.unsafe_get s.heap_at left)
            (Array.unsafe_get s.heap_holder left)
    then left + 1
    else left
  in
  if child < s.heap_len
     && entry_before (Array.unsafe_get s.heap_at child) (Array.unsafe_get s.heap_holder child) at h
  then begin
    Array.unsafe_set s.heap_at i (Array.unsafe_get s.heap_at child);
    Array.unsafe_set s.heap_holder i (Array.unsafe_get s.heap_holder child);
    sift_down s child at h
  end
  else begin
    Array.unsafe_set s.heap_at i at;
    Array.unsafe_set s.heap_holder i h
  end

(* Fixed terms make expiries arrive in order, so a push usually stops after
   one compare with its parent. *)
let heap_push s at h =
  let cap = Array.length s.heap_at in
  if s.heap_len = cap then begin
    let cap' = Int.max 4 (2 * cap) in
    let at' = Array.make cap' 0 and holder' = Array.make cap' 0 in
    Array.blit s.heap_at 0 at' 0 s.heap_len;
    Array.blit s.heap_holder 0 holder' 0 s.heap_len;
    s.heap_at <- at';
    s.heap_holder <- holder'
  end;
  s.heap_len <- s.heap_len + 1;
  sift_up s (s.heap_len - 1) at h

let heap_drop_top s =
  let last = s.heap_len - 1 in
  s.heap_len <- last;
  if last > 0 then sift_down s 0 s.heap_at.(last) s.heap_holder.(last)

(* Refill the heap with exactly one entry per live finite record and
   heapify bottom-up.  The table never holds more records than the heap
   has entries here, so the arrays are large enough. *)
let rebuild s =
  s.heap_len <- 0;
  Host_id.Tbl.iter
    (fun holder at ->
      if at <> never then begin
        s.heap_at.(s.heap_len) <- at;
        s.heap_holder.(s.heap_len) <- Host_id.to_int holder;
        s.heap_len <- s.heap_len + 1
      end)
    s.tbl;
  for i = (s.heap_len / 2) - 1 downto 0 do
    sift_down s i s.heap_at.(i) s.heap_holder.(i)
  done

let push_entry s at holder =
  if at <> never then begin
    heap_push s at (Host_id.to_int holder);
    if s.heap_len > (2 * Host_id.Tbl.length s.tbl) + 8 then rebuild s
  end

(* Whether the table still maps [h] to [at], i.e. the entry is not stale. *)
let current s at h =
  match Host_id.Tbl.find s.tbl (Host_id.of_int h) with
  | cur -> cur = at
  | exception Not_found -> false

(* --- reaping ------------------------------------------------------------ *)

(* Remove every record expired at [now] and recompute [min_next] exactly.
   Amortized O(log n) per record over its lifetime: a record is reaped at
   most once, and each heap entry is pushed and popped at most once.  A
   shared slot pops its expired entries in (expiry, holder) order and
   reaps a holder only for a current entry; it then drops stale entries
   off the top, so the top is the earliest live finite expiry. *)
let reap_slot t file slot ~now =
  if slot.min_next <= now then begin
    match slot.holders with
    | No_holder -> slot.min_next <- never
    | One r ->
      if r.h_expiry <= now then begin
        t.records <- t.records - 1;
        t.reaped_total <- t.reaped_total + 1;
        t.files <- t.files - 1;
        let holder = r.holder and expiry = r.h_expiry in
        slot.holders <- No_holder;
        slot.min_next <- never;
        t.on_reap file holder (Lease.At (Time.of_us expiry))
      end
      else slot.min_next <- r.h_expiry
    | Many s ->
      let had = Host_id.Tbl.length s.tbl in
      while s.heap_len > 0 && s.heap_at.(0) <= now do
        let at = s.heap_at.(0) and h = s.heap_holder.(0) in
        heap_drop_top s;
        if current s at h then begin
          let holder = Host_id.of_int h in
          Host_id.Tbl.remove s.tbl holder;
          t.records <- t.records - 1;
          t.reaped_total <- t.reaped_total + 1;
          t.on_reap file holder (Lease.At (Time.of_us at))
        end
      done;
      while s.heap_len > 0 && not (current s s.heap_at.(0) s.heap_holder.(0)) do
        heap_drop_top s
      done;
      slot.min_next <- (if s.heap_len > 0 then s.heap_at.(0) else never);
      if had > 0 && Host_id.Tbl.length s.tbl = 0 then t.files <- t.files - 1
  end

(* The slot with every expired record removed, or [None] when the file has
   no live records at [now]. *)
let live_slot t file ~now =
  match slot_opt t file with
  | None -> None
  | Some slot ->
    reap_slot t file slot ~now;
    if holders_len slot.holders = 0 then None else Some slot

let record t file holder expiry =
  let idx = File_id.to_int file in
  ensure t idx;
  let slot =
    match t.slots.(idx) with
    | Some slot -> slot
    | None ->
      let slot = { holders = No_holder; min_next = never } in
      t.slots.(idx) <- Some slot;
      slot
  in
  let at = us_of_expiry expiry in
  (match slot.holders with
  | No_holder ->
    t.files <- t.files + 1;
    t.records <- t.records + 1;
    slot.holders <- One { holder; h_expiry = at }
  | One r when Host_id.equal r.holder holder -> r.h_expiry <- at
  | One r ->
    let s =
      { tbl = Host_id.Tbl.create 8; heap_at = [||]; heap_holder = [||]; heap_len = 0 }
    in
    Host_id.Tbl.replace s.tbl r.holder r.h_expiry;
    Host_id.Tbl.replace s.tbl holder at;
    push_entry s r.h_expiry r.holder;
    push_entry s at holder;
    t.records <- t.records + 1;
    slot.holders <- Many s
  | Many s ->
    (* one probe: the length tells whether [replace] added a holder *)
    let before = Host_id.Tbl.length s.tbl in
    Host_id.Tbl.replace s.tbl holder at;
    if Host_id.Tbl.length s.tbl > before then begin
      if before = 0 then t.files <- t.files + 1;
      t.records <- t.records + 1
    end;
    push_entry s at holder);
  if at < slot.min_next then slot.min_next <- at

let remove_holder t file holder =
  match slot_opt t file with
  | Some slot -> (
    match slot.holders with
    | No_holder -> ()
    | One r when Host_id.equal r.holder holder ->
      slot.holders <- No_holder;
      t.records <- t.records - 1;
      t.files <- t.files - 1;
      slot.min_next <- never
    | One _ -> ()
    | Many s ->
      let before = Host_id.Tbl.length s.tbl in
      Host_id.Tbl.remove s.tbl holder;
      if Host_id.Tbl.length s.tbl < before then begin
        t.records <- t.records - 1;
        if before = 1 then begin
          t.files <- t.files - 1;
          s.heap_len <- 0;
          slot.min_next <- never
        end
      end)
  | None -> ()

let drop_file t file =
  match slot_opt t file with
  | Some slot ->
    let n = holders_len slot.holders in
    if n > 0 then begin
      t.records <- t.records - n;
      t.files <- t.files - 1
    end;
    (* Keep a promoted slot's table and heap allocated: commits drop files
       that are about to be re-read, so they are hot again immediately. *)
    (match slot.holders with
    | No_holder | One _ -> slot.holders <- No_holder
    | Many s ->
      Host_id.Tbl.reset s.tbl;
      s.heap_len <- 0);
    slot.min_next <- never
  | None -> ()

(* Iteration order over a holder table is unspecified, so every aggregate
   below is either order-independent (count, max, set union) or explicitly
   sorted — simulation determinism must not depend on hash layout. *)

(* Fold over the live records with expiries as microseconds ([never] for
   [Lease.Never]), so aggregates box no expiry per visited holder. *)
let fold_live_us t file ~now ~init ~f =
  match live_slot t file ~now:(Time.to_us now) with
  | None -> init
  | Some slot -> (
    match slot.holders with
    | No_holder -> init
    | One r -> f r.holder r.h_expiry init
    | Many s -> Host_id.Tbl.fold f s.tbl init)

let fold_live t file ~now ~init ~f =
  fold_live_us t file ~now ~init ~f:(fun holder at acc -> f holder (expiry_of_us at) acc)

(* After the reap every resident record is live, so the count is the slot
   length — the grant path's O(1). *)
let live_count t file ~now =
  match live_slot t file ~now:(Time.to_us now) with
  | None -> 0
  | Some slot -> holders_len slot.holders

let live_holders t file ~now =
  fold_live_us t file ~now ~init:[] ~f:(fun holder _ acc -> holder :: acc)
  |> List.sort Host_id.compare

let live_holder_set t file ~now =
  fold_live_us t file ~now ~init:Host_id.Set.empty ~f:(fun holder _ acc ->
      Host_id.Set.add holder acc)

(* [never] is the largest int, so [Int.max] is [Lease.expiry_max]. *)
let live_deadline t file ~now ~init =
  expiry_of_us
    (fold_live_us t file ~now ~init:(us_of_expiry init) ~f:(fun _ at acc -> Int.max at acc))

(* One pass for the write path: the latest live expiry and the live holder
   set together, instead of two reap-check-and-fold rounds. *)
let write_snapshot t file ~now ~init =
  let deadline = ref (us_of_expiry init) in
  let holders =
    fold_live_us t file ~now ~init:Host_id.Set.empty ~f:(fun holder at acc ->
        if at > !deadline then deadline := at;
        Host_id.Set.add holder acc)
  in
  (expiry_of_us !deadline, holders)

let sweep t ~now =
  let now = Time.to_us now in
  let before = t.reaped_total in
  Array.iteri
    (fun idx slot ->
      match slot with
      | Some slot ->
        if holders_len slot.holders > 0 then reap_slot t (File_id.of_int idx) slot ~now
      | None -> ())
    t.slots;
  t.reaped_total - before

type occupancy = { files : int; records : int; live_records : int }

(* A sweep leaves only live records resident, so the counters answer the
   occupancy question in O(files) comparisons (most slots are already
   clean) instead of the old fold over every record ever granted. *)
let occupancy (t : t) ~now =
  ignore (sweep t ~now);
  { files = t.files; records = t.records; live_records = t.records }

(* Earliest finite expiry lower bound across all slots — [None] when every
   resident record is infinite (or the table is empty), i.e. nothing will
   ever become reapable.  O(slot array). *)
let next_finite_expiry t =
  let best = ref never in
  Array.iter
    (function Some slot -> if slot.min_next < !best then best := slot.min_next | None -> ())
    t.slots;
  if !best < never then Some (Time.of_us !best) else None

let resident_records (t : t) = t.records
let resident_files (t : t) = t.files
let reaped_total (t : t) = t.reaped_total

let clear (t : t) =
  t.slots <- [||];
  t.files <- 0;
  t.records <- 0
