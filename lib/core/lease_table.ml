module Host_id = Host.Host_id
module File_id = Vstore.File_id

(* Expiries are [Lease.expiry] values on the server's clock: unboxed ints,
   so slots and holder tables store them without allocating.
   [Lease.never] doubles as the "no finite expiry resident" sentinel. *)

(* Holders of a promoted slot: one open-addressing table whose entries are
   also the nodes of a doubly linked list.  Entry [i] is [stride] ints of
   [cells] — holder (or [empty]), expiry, previous entry, next entry — so
   one probe lands on the record itself and a record's fields share a
   cache line or two.  The table is keyed by holder, with linear probing
   from a Fibonacci hash and backward-shift deletion (as [Int_tbl]), and
   stays at most half full.  The list runs through the live entries in
   ascending (expiry, holder) order, so a reap pops expired records off
   its head in the order [on_reap] reports them, and the head's expiry is
   the slot's earliest.  Records that never expire sit after every finite
   one, in no particular order among themselves: they are never reaped and
   every fold is order-independent, so their order is never observed.
   ([Int_tbl] itself is not used: an [Int_tbl] index beside separate node
   arrays costs more cache lines a renewal, and this layout read 12–18 %
   faster end to end; DESIGN.md §13.) *)
type shared = {
  mutable cells : int array;  (** [stride] ints per entry; see [holder_of] et al. *)
  mutable shift : int;  (** [Sys.int_size - log2 entries] *)
  mutable count : int;  (** resident records *)
  mutable head : int;  (** earliest (expiry, holder), or [nil] *)
  mutable tail : int;  (** latest, or [nil] *)
}

let nil = -1
let empty = -1
let stride = 4
let initial_entries = 8

(* Entry [i]'s fields.  Every entry index below [entries s] lies inside
   [cells], so the fields are read and written unchecked. *)
let holder_of s i = Array.unsafe_get s.cells (stride * i)
let expiry_of s i = Lease.unsafe_get_expiry s.cells ((stride * i) + 1)
let prev_of s i = Array.unsafe_get s.cells ((stride * i) + 2)
let next_of s i = Array.unsafe_get s.cells ((stride * i) + 3)
let set_holder s i h = Array.unsafe_set s.cells (stride * i) h
let set_expiry s i at = Lease.unsafe_set_expiry s.cells ((stride * i) + 1) at
let set_prev s i p = Array.unsafe_set s.cells ((stride * i) + 2) p
let set_next s i x = Array.unsafe_set s.cells ((stride * i) + 3) x

(* Per-file slot, one mutable block per granted file.  Most files only
   ever see a single holder (private and temporary files dominate real
   traces), so that holder and its expiry sit inline in the slot: a renewal
   of a private file touches this one block.  A slot is promoted to a
   [shared] list when a second distinct holder shows up, and never
   demotes: shared files stay shared.  While [shared] is [None], the slot
   holds one record when [holder >= 0] and none when it is [no_holder];
   once promoted, every record is in the shared list and [holder] stays
   [no_holder].

   The slot contains only records that have not been reaped yet;
   [min_next] is a lower bound on the earliest finite expiry among them:
   exact for a promoted slot (its list head's expiry) and after a reap,
   monotone under [record] for an inline one.  When the server clock
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

(* Slots live in fixed-size chunks of [chunk_size] files, reached through
   a directory indexed by [File_id.to_int file lsr chunk_bits], so memory
   follows the files granted, not the largest id.  A chunk carries the
   resident bits of its own slots: bit [i] is set exactly while [slots.(i)]
   holds a resident record, [word_bits] slots per int.  Every directory
   entry no grant has touched is [empty_chunk], one chunk shared by every
   table, whose slots are all [vacant] and whose bits are all clear.  It is
   never written: only [record] creates a resident record, and it first
   replaces a [vacant] slot, and with it an [empty_chunk], by a fresh one.
   A read is a directory load and a chunk load more than an array's, with
   no emptiness test.  256 slots a chunk: a 4096-slot chunk is allocated
   straight on the major heap, which the small worlds of a campaign pay
   for in time. *)
type chunk = {
  slots : slot array;  (** [chunk_size] slots; [vacant] where never granted *)
  resident : int array;  (** [chunk_size / word_bits] words of resident bits *)
}

let chunk_bits = 8
let chunk_size = 1 lsl chunk_bits
let word_bits = 32

let new_chunk () =
  { slots = Array.make chunk_size vacant; resident = Array.make (chunk_size / word_bits) 0 }

let empty_chunk = new_chunk ()

type t = {
  mutable chunks : chunk array;  (** [empty_chunk] where no file was granted *)
  mutable files : int;  (** slots with at least one resident record *)
  mutable records : int;  (** resident records across all slots *)
  mutable on_reap : File_id.t -> Host_id.t -> Lease.expiry -> unit;
      (** called once per reaped record, inside the reap pass: must not
          re-enter the table.  Installed by the server to emit
          [lease-expire] trace events; default [ignore]. *)
}

let create () =
  { chunks = [||]; files = 0; records = 0; on_reap = (fun _ _ _ -> ()) }

let set_on_reap t f = t.on_reap <- f

let holders_len slot =
  match slot.shared with
  | Some s -> s.count
  | None -> if slot.holder >= 0 then 1 else 0

(* --- chunks and resident bits ------------------------------------------ *)

let slot t file =
  let idx = File_id.to_int file in
  let c = idx lsr chunk_bits in
  if c < Array.length t.chunks then
    Array.unsafe_get (Array.unsafe_get t.chunks c).slots (idx land (chunk_size - 1))
  else vacant

(* A fresh slot for file index [idx], whose slot is [vacant]: the directory
   grows to cover it (at least doubling), and an [empty_chunk] entry gets a
   chunk of its own. *)
let fresh_slot t idx =
  let c = idx lsr chunk_bits in
  let cap = Array.length t.chunks in
  if c >= cap then begin
    let chunks = Array.make (Int.max (c + 1) (2 * cap)) empty_chunk in
    Array.blit t.chunks 0 chunks 0 cap;
    t.chunks <- chunks
  end;
  let chunk =
    let chunk = Array.unsafe_get t.chunks c in
    if chunk != empty_chunk then chunk
    else begin
      let chunk = new_chunk () in
      t.chunks.(c) <- chunk;
      chunk
    end
  in
  let slot =
    { holder = no_holder; h_expiry = Lease.never; min_next = Lease.never; shared = None }
  in
  chunk.slots.(idx land (chunk_size - 1)) <- slot;
  slot

(* [files] moves exactly when a slot gains its first resident record or
   loses its last, and every such site sets or clears the slot's bit, so a
   sweep visits the resident slots without touching the empty ones.  Both
   are only called for a file whose slot [record] has created, so its
   chunk is its own. *)
let flip_resident t file ~set =
  let idx = File_id.to_int file in
  let bits = (Array.unsafe_get t.chunks (idx lsr chunk_bits)).resident in
  let i = idx land (chunk_size - 1) in
  let w = i / word_bits and bit = 1 lsl (i mod word_bits) in
  let word = Array.unsafe_get bits w in
  Array.unsafe_set bits w (if set then word lor bit else word land lnot bit)

let set_resident t file = flip_resident t file ~set:true
let clear_resident t file = flip_resident t file ~set:false

(* --- the holder table of a shared slot -------------------------------- *)

let entries s = Array.length s.cells / stride
let rec log2 c b = if c = 1 then b else log2 (c lsr 1) (b + 1)

let create_shared n =
  let cells = Array.make (stride * n) empty in
  { cells; shift = Sys.int_size - log2 n 0; count = 0; head = nil; tail = nil }

(* [Int_tbl]'s hash: multiply by the odd integer nearest 2^63 / golden
   ratio and keep the top bits. *)
let home s h = (h * 0x4F1B_BCDC_BFA5_3E0B) lsr s.shift

(* The entry holding [h], or the empty entry that ends its probe run.
   Probe loops are top-level functions over their arguments: a local
   closure would be allocated on every lookup. *)
let rec probe s h i =
  let h' = holder_of s i in
  if h' = h || h' = empty then i else probe s h ((i + 1) land (entries s - 1))

(* Records are ordered by (expiry, holder), a total order on one file's
   records (a holder has at most one), so the list order — and with it the
   order of [lease-expire] events — depends on nothing else.  The
   annotations make both compares single int compares: left polymorphic,
   [<] and [=] call into the runtime's generic comparison. *)
let before (at : Lease.expiry) (h : int) at' h' = at < at' || (at = at' && h < h')

let head_expiry s = if s.head = nil then Lease.never else expiry_of s s.head

let unlink s i =
  let p = prev_of s i and x = next_of s i in
  if p = nil then s.head <- x else set_next s p x;
  if x = nil then s.tail <- p else set_prev s x p

(* The last entry at or before [p] in the list that is ordered before
   (at, h), or [nil]. *)
let rec last_before s p at h =
  if p <> nil && before at h (expiry_of s p) (holder_of s p) then last_before s (prev_of s p) at h
  else p

(* Link entry [i], holding (at, h), after the last entry ordered before
   it: walk back from the tail.  A fixed term under a monotone clock
   renews to the latest expiry, so the walk stops at its first compare; a
   stepped clock or a varying term walks further and stays exact.  A
   record that never expires goes to the tail with no walk, so an infinite
   term costs what a fixed one does. *)
let link s i (at : Lease.expiry) h =
  let p = if Lease.is_never at then s.tail else last_before s s.tail at h in
  let x = if p = nil then s.head else next_of s p in
  set_prev s i p;
  set_next s i x;
  if p = nil then s.head <- i else set_next s p i;
  if x = nil then s.tail <- i else set_prev s x i

(* Add a record for [h], which holds none on the file. *)
let rec insert s h at =
  if 2 * (s.count + 1) > entries s then grow s;
  let i = probe s h (home s h) in
  set_holder s i h;
  set_expiry s i at;
  link s i at h;
  s.count <- s.count + 1

(* Double the table and re-enter every record in list order, so each
   relink stops at its first compare.  [from] is the table as it was,
   read through a copy of its record. *)
and grow s =
  let from = { s with cells = s.cells } in
  let n = 2 * entries s in
  s.cells <- Array.make (stride * n) empty;
  s.shift <- Sys.int_size - log2 n 0;
  s.count <- 0;
  s.head <- nil;
  s.tail <- nil;
  copy_list s ~from from.head

and copy_list s ~from i =
  if i <> nil then begin
    insert s (holder_of from i) (expiry_of from i);
    copy_list s ~from (next_of from i)
  end

(* Move entry [j] into the empty entry [hole], repointing its neighbours. *)
let move s j hole =
  let p = prev_of s j and x = next_of s j in
  set_holder s hole (holder_of s j);
  set_expiry s hole (expiry_of s j);
  set_prev s hole p;
  set_next s hole x;
  if p = nil then s.head <- hole else set_next s p hole;
  if x = nil then s.tail <- hole else set_prev s x hole

(* Backward-shift deletion, as [Int_tbl]'s: walk the run after the hole
   and move back every entry whose home lies cyclically at or before it,
   so that no probe for a remaining holder crosses an empty entry. *)
let rec close s hole j =
  let h = holder_of s j in
  let mask = entries s - 1 in
  if h = empty then set_holder s hole empty
  else if (j - home s h) land mask >= (j - hole) land mask then begin
    move s j hole;
    close s j ((j + 1) land mask)
  end
  else close s hole ((j + 1) land mask)

(* Take entry [i] off the list and out of the table. *)
let delete s i =
  unlink s i;
  s.count <- s.count - 1;
  close s i ((i + 1) land (entries s - 1))

let rec wipe s i =
  if i <> nil then begin
    set_holder s i empty;
    wipe s (next_of s i)
  end

(* Forget every record.  A grown table goes back to its initial size, so a
   file that once had many holders does not keep their room for good; an
   initial-size one is emptied in place, entry by listed entry. *)
let clear_shared s =
  if entries s > initial_entries then begin
    s.cells <- Array.make (stride * initial_entries) empty;
    s.shift <- Sys.int_size - log2 initial_entries 0
  end
  else wipe s s.head;
  s.count <- 0;
  s.head <- nil;
  s.tail <- nil

(* --- reaping ------------------------------------------------------------ *)

(* Pop the shared slot's expired records off the head of its list, in
   (expiry, holder) order.  Each pop is O(1) plus the probe run it closes,
   and the list holds nothing but resident records, so nothing is popped
   for nothing. *)
let rec reap_shared t file s ~now =
  let i = s.head in
  if i <> nil && Lease.expired (expiry_of s i) ~now then begin
    let h = holder_of s i and at = expiry_of s i in
    delete s i;
    t.records <- t.records - 1;
    t.on_reap file (Host_id.of_int h) at;
    reap_shared t file s ~now
  end

(* Remove every record expired at [now] and recompute [min_next] exactly.
   A record is reaped at most once. *)
let reap_slot t file slot ~now =
  if Lease.expired slot.min_next ~now then begin
    match slot.shared with
    | None ->
      if slot.holder >= 0 && Lease.expired slot.h_expiry ~now then begin
        t.records <- t.records - 1;
        t.files <- t.files - 1;
        clear_resident t file;
        let holder = Host_id.of_int slot.holder and expiry = slot.h_expiry in
        slot.holder <- no_holder;
        slot.min_next <- Lease.never;
        t.on_reap file holder expiry
      end
      else slot.min_next <- (if slot.holder >= 0 then slot.h_expiry else Lease.never)
    | Some s ->
      let had = s.count in
      reap_shared t file s ~now;
      slot.min_next <- head_expiry s;
      if had > 0 && s.count = 0 then begin
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
  let slot =
    let slot = slot t file in
    if slot == vacant then fresh_slot t (File_id.to_int file) else slot
  in
  reap_slot t file slot ~now;
  let h = Host_id.to_int holder in
  match slot.shared with
  | None when slot.holder = h ->
    slot.h_expiry <- at;
    slot.min_next <- Lease.expiry_min at slot.min_next
  | None when slot.holder = no_holder ->
    t.files <- t.files + 1;
    set_resident t file;
    t.records <- t.records + 1;
    slot.holder <- h;
    slot.h_expiry <- at;
    slot.min_next <- Lease.expiry_min at slot.min_next
  | None ->
    let s = create_shared initial_entries in
    insert s slot.holder slot.h_expiry;
    insert s h at;
    t.records <- t.records + 1;
    slot.holder <- no_holder;
    slot.h_expiry <- Lease.never;
    slot.shared <- Some s;
    slot.min_next <- head_expiry s
  | Some s ->
    let i = probe s h (home s h) in
    if holder_of s i = h then begin
      (* a renewal: move the entry to its new place in the list *)
      unlink s i;
      set_expiry s i at;
      link s i at h
    end
    else begin
      if s.count = 0 then begin
        t.files <- t.files + 1;
        set_resident t file
      end;
      t.records <- t.records + 1;
      insert s h at
    end;
    slot.min_next <- head_expiry s

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
    let h = Host_id.to_int holder in
    let i = probe s h (home s h) in
    if holder_of s i = h then begin
      delete s i;
      t.records <- t.records - 1;
      if s.count = 0 then begin
        t.files <- t.files - 1;
        clear_resident t file
      end;
      slot.min_next <- head_expiry s
    end

let drop_file t file =
  let slot = slot t file in
  let n = holders_len slot in
  if n > 0 then begin
    t.records <- t.records - n;
    t.files <- t.files - 1;
    clear_resident t file;
    (* Keep a promoted slot's table: commits drop files that are about to
       be re-read, so they are hot again immediately. *)
    (match slot.shared with
    | None -> slot.holder <- no_holder
    | Some s -> clear_shared s);
    slot.min_next <- Lease.never
  end

(* Every aggregate below is either order-independent (count, max, set
   union) or explicitly sorted, so none depends on the order of a fold. *)

let rec fold_list s n f acc =
  if n = nil then acc
  else fold_list s (next_of s n) f (f (Host_id.of_int (holder_of s n)) (expiry_of s n) acc)

let fold_live t file ~now ~init ~f =
  let slot = live_slot t file ~now in
  match slot.shared with
  | Some s -> fold_list s s.head f init
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

(* One pass over the chunks' resident bits: reap each resident slot, in
   ascending file order, and take the minimum of the bounds it leaves.
   Empty slots are never visited; they lose nothing, because an empty
   slot's [min_next] is always [Lease.never].  A reap clears only its own
   slot's bit, so the word copied before its slots are visited names
   exactly the slots resident when the pass reached it. *)
let sweep t ~now =
  let next = ref Lease.never in
  let chunks = t.chunks in
  for c = 0 to Array.length chunks - 1 do
    let chunk = Array.unsafe_get chunks c in
    if chunk != empty_chunk then
      for w = 0 to (chunk_size / word_bits) - 1 do
        let bits = ref (Array.unsafe_get chunk.resident w) and i = ref (w * word_bits) in
        while !bits <> 0 do
          if !bits land 1 <> 0 then begin
            let slot = Array.unsafe_get chunk.slots !i in
            reap_slot t (File_id.of_int ((c lsl chunk_bits) lor !i)) slot ~now;
            next := Lease.expiry_min slot.min_next !next
          end;
          bits := !bits lsr 1;
          incr i
        done
      done
  done;
  not (Lease.is_never !next)

type occupancy = { files : int; records : int }

(* A sweep leaves only live records resident, so the counters answer the
   occupancy question. *)
let occupancy (t : t) ~now =
  ignore (sweep t ~now);
  { files = t.files; records = t.records }

let clear (t : t) =
  t.chunks <- [||];
  t.files <- 0;
  t.records <- 0
