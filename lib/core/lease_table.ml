module Host_id = Host.Host_id
module File_id = Vstore.File_id

(* Expiries are [Lease.expiry] values on the server's clock: unboxed ints,
   so slots, holder tables and heaps store them without allocating.
   [Lease.never] doubles as the "no finite expiry resident" sentinel. *)

(* Holders of a promoted slot.  [tbl] maps each holder to its expiry; the
   heap holds (expiry, holder) entries in two parallel arrays, a min-heap
   on that pair.  Every live finite record has an entry carrying its
   current expiry; deletion is lazy, so a re-record or a removal leaves the
   old entry behind as a {e stale} one, recognised when popped because the
   table no longer maps its holder to its expiry.  Stale entries are
   bounded: once the heap holds more than twice the live records plus 8, it
   is rebuilt from the table. *)
type shared = {
  tbl : Lease.expiry Host_id.Tbl.t;
  mutable heap_at : Lease.expiry array;
  mutable heap_holder : int array;  (** [Host_id.to_int] of the holder *)
  mutable heap_len : int;
}

(* Per-file slot, one mutable block per granted file.  Most files only
   ever see a single holder (private and temporary files dominate real
   traces), so that holder and its expiry sit inline in the slot: a renewal
   of a private file touches this one block.  A slot is promoted to a
   [shared] table and heap when a second distinct holder shows up, and
   never demotes: shared files stay shared.  While [shared] is [None], the
   slot holds one record when [holder >= 0] and none when it is
   [no_holder]; once promoted, every record is in the shared table and
   [holder] stays [no_holder].

   The slot contains only records that have not been reaped yet;
   [min_next] is a lower bound on the earliest finite expiry among them
   (monotone under [record], exact after a reap).  When the server clock
   passes [min_next] the slot is reaped on the next access, so every
   aggregate below runs over records that are live *now* — the cost of a
   grant tracks live sharing, not the file's lifetime holder history. *)
type slot = {
  mutable holder : int;  (** [Host_id.to_int] of the inline holder, or [no_holder] *)
  mutable h_expiry : Lease.expiry;
  mutable min_next : Lease.expiry;
  mutable shared : shared option;
}

let no_holder = -1

(* The slot of every file never granted: all its fields say "no records",
   so reads go through it unchanged, and [record] replaces it with a fresh
   slot before writing.  Nothing ever writes to it, so tables in different
   domains can share it. *)
let vacant = { holder = no_holder; h_expiry = Lease.never; min_next = Lease.never; shared = None }

type t = {
  mutable slots : slot array;  (** indexed by [File_id.to_int]; [vacant] when never granted *)
  mutable resident : int array;
      (** bit [idx] set exactly while slot [idx] holds a resident record;
          [word_bits] slots per int, sized with [slots] *)
  mutable files : int;  (** slots with at least one resident record *)
  mutable records : int;  (** resident records across all slots *)
  mutable reaped_total : int;  (** lifetime reaped records, never reset *)
  mutable on_reap : File_id.t -> Host_id.t -> Lease.expiry -> unit;
      (** called once per reaped record, inside the reap pass: must not
          re-enter the table.  Installed by the server to emit
          [lease-expire] trace events; default [ignore]. *)
}

let create () =
  {
    slots = [||];
    resident = [||];
    files = 0;
    records = 0;
    reaped_total = 0;
    on_reap = (fun _ _ _ -> ());
  }

let set_on_reap t f = t.on_reap <- f

let holders_len slot =
  match slot.shared with
  | Some s -> Host_id.Tbl.length s.tbl
  | None -> if slot.holder >= 0 then 1 else 0

(* --- the resident bitmap ------------------------------------------------ *)

(* [files] moves exactly when a slot gains its first resident record or
   loses its last, and every such site sets or clears the slot's bit, so a
   sweep visits the resident slots without touching the empty ones. *)
let word_bits = Sys.int_size

let set_resident t idx =
  let w = idx / word_bits in
  Array.unsafe_set t.resident w (Array.unsafe_get t.resident w lor (1 lsl (idx mod word_bits)))

(* Only called for a file with a resident record, whose bit lies inside
   the bitmap. *)
let clear_resident t file =
  let idx = File_id.to_int file in
  let w = idx / word_bits in
  Array.unsafe_set t.resident w
    (Array.unsafe_get t.resident w land lnot (1 lsl (idx mod word_bits)))

let ensure t idx =
  let cap = Array.length t.slots in
  if idx >= cap then begin
    let cap' = Int.max 16 (Int.max (idx + 1) (2 * cap)) in
    let slots' = Array.make cap' vacant in
    Array.blit t.slots 0 slots' 0 cap;
    t.slots <- slots';
    let resident' = Array.make ((cap' + word_bits - 1) / word_bits) 0 in
    Array.blit t.resident 0 resident' 0 (Array.length t.resident);
    t.resident <- resident'
  end

let slot t file =
  let idx = File_id.to_int file in
  if idx < Array.length t.slots then Array.unsafe_get t.slots idx else vacant

(* --- the expiry heap of a shared slot -------------------------------- *)

(* Entries are ordered by (expiry, holder), a total order on distinct
   records, so the pop order — and with it the order of [lease-expire]
   events — does not depend on heap layout or on the table's hash.  The
   annotations make both compares single int compares: left polymorphic,
   [<] and [=] call into the runtime's generic comparison. *)
let entry_before (at : Lease.expiry) (h : int) at' h' = at < at' || (at = at' && h < h')

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
    let at' = Array.make cap' Lease.never and holder' = Array.make cap' 0 in
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
      if not (Lease.is_never at) then begin
        s.heap_at.(s.heap_len) <- at;
        s.heap_holder.(s.heap_len) <- Host_id.to_int holder;
        s.heap_len <- s.heap_len + 1
      end)
    s.tbl;
  for i = (s.heap_len / 2) - 1 downto 0 do
    sift_down s i s.heap_at.(i) s.heap_holder.(i)
  done

let push_entry s at holder =
  if not (Lease.is_never at) then begin
    heap_push s at (Host_id.to_int holder);
    if s.heap_len > (2 * Host_id.Tbl.length s.tbl) + 8 then rebuild s
  end

(* Whether the table still maps [h] to [at], i.e. the entry is not stale. *)
let current s (at : Lease.expiry) h =
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
  if Lease.expired slot.min_next ~now then begin
    match slot.shared with
    | None ->
      if slot.holder >= 0 && Lease.expired slot.h_expiry ~now then begin
        t.records <- t.records - 1;
        t.reaped_total <- t.reaped_total + 1;
        t.files <- t.files - 1;
        clear_resident t file;
        let holder = Host_id.of_int slot.holder and expiry = slot.h_expiry in
        slot.holder <- no_holder;
        slot.min_next <- Lease.never;
        t.on_reap file holder expiry
      end
      else slot.min_next <- (if slot.holder >= 0 then slot.h_expiry else Lease.never)
    | Some s ->
      let had = Host_id.Tbl.length s.tbl in
      while s.heap_len > 0 && Lease.expired s.heap_at.(0) ~now do
        let at = s.heap_at.(0) and h = s.heap_holder.(0) in
        heap_drop_top s;
        if current s at h then begin
          let holder = Host_id.of_int h in
          Host_id.Tbl.remove s.tbl holder;
          t.records <- t.records - 1;
          t.reaped_total <- t.reaped_total + 1;
          t.on_reap file holder at
        end
      done;
      while s.heap_len > 0 && not (current s s.heap_at.(0) s.heap_holder.(0)) do
        heap_drop_top s
      done;
      slot.min_next <- (if s.heap_len > 0 then s.heap_at.(0) else Lease.never);
      if had > 0 && Host_id.Tbl.length s.tbl = 0 then begin
        t.files <- t.files - 1;
        clear_resident t file
      end
  end

(* The file's slot with every expired record removed; [vacant] or an empty
   slot when the file has no live records at [now]. *)
let live_slot t file ~now =
  let slot = slot t file in
  reap_slot t file slot ~now;
  slot

(* The reap check comes first, so the expired records of the file are
   reaped — and reported — before the write, in the order a query would
   reap them, and a renewal visits its slot once. *)
let record t file holder at ~now =
  let idx = File_id.to_int file in
  ensure t idx;
  let slot =
    let slot = Array.unsafe_get t.slots idx in
    if slot == vacant then begin
      let slot =
        { holder = no_holder; h_expiry = Lease.never; min_next = Lease.never; shared = None }
      in
      t.slots.(idx) <- slot;
      slot
    end
    else slot
  in
  reap_slot t file slot ~now;
  let h = Host_id.to_int holder in
  (match slot.shared with
  | None when slot.holder = h -> slot.h_expiry <- at
  | None when slot.holder = no_holder ->
    t.files <- t.files + 1;
    set_resident t idx;
    t.records <- t.records + 1;
    slot.holder <- h;
    slot.h_expiry <- at
  | None ->
    let s =
      { tbl = Host_id.Tbl.create 8; heap_at = [||]; heap_holder = [||]; heap_len = 0 }
    in
    let first = Host_id.of_int slot.holder in
    Host_id.Tbl.replace s.tbl first slot.h_expiry;
    Host_id.Tbl.replace s.tbl holder at;
    push_entry s slot.h_expiry first;
    push_entry s at holder;
    t.records <- t.records + 1;
    slot.holder <- no_holder;
    slot.h_expiry <- Lease.never;
    slot.shared <- Some s
  | Some s ->
    (* one probe: the length tells whether [replace] added a holder *)
    let before = Host_id.Tbl.length s.tbl in
    Host_id.Tbl.replace s.tbl holder at;
    if Host_id.Tbl.length s.tbl > before then begin
      if before = 0 then begin
        t.files <- t.files + 1;
        set_resident t idx
      end;
      t.records <- t.records + 1
    end;
    push_entry s at holder);
  slot.min_next <- Lease.expiry_min at slot.min_next

let remove_holder t file holder =
  let slot = slot t file in
  match slot.shared with
  | None ->
    if slot.holder = Host_id.to_int holder then begin
      slot.holder <- no_holder;
      t.records <- t.records - 1;
      t.files <- t.files - 1;
      clear_resident t file;
      slot.min_next <- Lease.never
    end
  | Some s ->
    let before = Host_id.Tbl.length s.tbl in
    Host_id.Tbl.remove s.tbl holder;
    if Host_id.Tbl.length s.tbl < before then begin
      t.records <- t.records - 1;
      if before = 1 then begin
        t.files <- t.files - 1;
        clear_resident t file;
        s.heap_len <- 0;
        slot.min_next <- Lease.never
      end
    end

let drop_file t file =
  let slot = slot t file in
  let n = holders_len slot in
  if n > 0 then begin
    t.records <- t.records - n;
    t.files <- t.files - 1;
    clear_resident t file;
    (* Keep a promoted slot's table and heap allocated: commits drop files
       that are about to be re-read, so they are hot again immediately. *)
    (match slot.shared with
    | None -> slot.holder <- no_holder
    | Some s ->
      Host_id.Tbl.reset s.tbl;
      s.heap_len <- 0);
    slot.min_next <- Lease.never
  end

(* Iteration order over a holder table is unspecified, so every aggregate
   below is either order-independent (count, max, set union) or explicitly
   sorted — simulation determinism must not depend on hash layout. *)

let fold_live t file ~now ~init ~f =
  let slot = live_slot t file ~now in
  match slot.shared with
  | Some s -> Host_id.Tbl.fold f s.tbl init
  | None -> if slot.holder >= 0 then f (Host_id.of_int slot.holder) slot.h_expiry init else init

(* After the reap every resident record is live, so the count is the slot
   length — the grant path's O(1). *)
let live_count t file ~now = holders_len (live_slot t file ~now)

let live_holders t file ~now =
  fold_live t file ~now ~init:[] ~f:(fun holder _ acc -> holder :: acc)
  |> List.sort Host_id.compare

let live_deadline t file ~now ~init =
  fold_live t file ~now ~init ~f:(fun _ at acc -> Lease.expiry_max at acc)

(* One pass for the write path: the latest live expiry and the live holder
   set together, instead of two reap-check-and-fold rounds. *)
let write_snapshot t file ~now ~init =
  let deadline = ref init in
  let holders =
    fold_live t file ~now ~init:Host_id.Set.empty ~f:(fun holder at acc ->
        deadline := Lease.expiry_max at !deadline;
        Host_id.Set.add holder acc)
  in
  (!deadline, holders)

(* One pass over the resident bitmap: reap each resident slot, in
   ascending file order, and take the minimum of the bounds it leaves.
   Empty slots are never visited; they lose nothing, because an empty
   slot's [min_next] is always [Lease.never].  A reap clears only its own
   slot's bit, so the word copied before its slots are visited names
   exactly the slots resident when the pass reached it. *)
let sweep t ~now =
  let next = ref Lease.never in
  let resident = t.resident in
  for w = 0 to Array.length resident - 1 do
    let bits = ref (Array.unsafe_get resident w) and idx = ref (w * word_bits) in
    while !bits <> 0 do
      if !bits land 1 <> 0 then begin
        let slot = Array.unsafe_get t.slots !idx in
        reap_slot t (File_id.of_int !idx) slot ~now;
        next := Lease.expiry_min slot.min_next !next
      end;
      bits := !bits lsr 1;
      incr idx
    done
  done;
  not (Lease.is_never !next)

type occupancy = { files : int; records : int; live_records : int }

(* A sweep leaves only live records resident, so the counters answer the
   occupancy question. *)
let occupancy (t : t) ~now =
  ignore (sweep t ~now);
  { files = t.files; records = t.records; live_records = t.records }

let reaped_total (t : t) = t.reaped_total

let clear (t : t) =
  t.slots <- [||];
  t.resident <- [||];
  t.files <- 0;
  t.records <- 0
