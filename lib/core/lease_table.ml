module Host_id = Host.Host_id
module File_id = Vstore.File_id
open Simtime

(* Sentinel "no finite expiry resident": far enough that no simulated clock
   reaches it (Time is microseconds in an int63). *)
let horizon = Time.of_us max_int

(* Holder table of a promoted slot.  It keeps the stdlib's [Hashtbl.hash]
   (seed 0) rather than an identity hash, so its bucket order is exactly a
   stdlib [Hashtbl]'s: a reap walks the table and emits one [lease-expire]
   per record in that order, which makes the order part of the trace.  Only
   the equality is specialised to ints. *)
module Holder_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Resident records of one file.  Most files only ever see a single holder
   (private and temporary files dominate real traces), so the single-record
   case is stored inline — four words, no hash table — and a slot is only
   promoted to a [Holder_tbl] when a second distinct holder shows up.  A
   promoted slot never demotes: shared files stay shared. *)
type holders =
  | No_holder
  | One of { mutable holder : int; mutable h_expiry : Lease.expiry }
  | Many of Lease.expiry Holder_tbl.t

(* Per-file slot.  [holders] contains only records that have not been
   reaped yet; [min_next] is a lower bound on the earliest finite expiry
   among them (monotone under [record], recomputed exactly by a reap).
   When the server clock passes [min_next] the slot is reaped on the next
   access, so every aggregate below runs over records that are live *now* —
   the cost of a grant tracks live sharing, not the file's lifetime holder
   history. *)
type slot = {
  mutable holders : holders;
  mutable min_next : Time.t;
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
  | Many tbl -> Holder_tbl.length tbl

let ensure t idx =
  let cap = Array.length t.slots in
  if idx >= cap then begin
    let cap' = Stdlib.max 16 (Stdlib.max (idx + 1) (2 * cap)) in
    let slots' = Array.make cap' None in
    Array.blit t.slots 0 slots' 0 cap;
    t.slots <- slots'
  end

let slot_opt t file =
  let idx = File_id.to_int file in
  if idx < Array.length t.slots then t.slots.(idx) else None

(* Remove every record expired at [now] and recompute [min_next] exactly.
   Amortized O(1) per record over its lifetime: a record is reaped at most
   once, and a pass that removes nothing also moves [min_next] forward to
   the true minimum, so the slot stays clean until the clock passes it. *)
let reap_slot t file slot ~now =
  if Time.(slot.min_next <= now) then begin
    match slot.holders with
    | No_holder -> slot.min_next <- horizon
    | One r ->
      if Lease.expired r.h_expiry ~now then begin
        t.records <- t.records - 1;
        t.reaped_total <- t.reaped_total + 1;
        t.files <- t.files - 1;
        let holder = r.holder and expiry = r.h_expiry in
        slot.holders <- No_holder;
        slot.min_next <- horizon;
        t.on_reap file (Host_id.of_int holder) expiry
      end
      else
        slot.min_next <- (match r.h_expiry with Lease.At at -> at | Lease.Never -> horizon)
    | Many tbl ->
      let had = Holder_tbl.length tbl in
      let min_next = ref horizon in
      Holder_tbl.filter_map_inplace
        (fun holder expiry ->
          if Lease.expired expiry ~now then begin
            t.records <- t.records - 1;
            t.reaped_total <- t.reaped_total + 1;
            t.on_reap file (Host_id.of_int holder) expiry;
            None
          end
          else begin
            (match expiry with
            | Lease.At at -> if Time.(at < !min_next) then min_next := at
            | Lease.Never -> ());
            Some expiry
          end)
        tbl;
      slot.min_next <- !min_next;
      if had > 0 && Holder_tbl.length tbl = 0 then t.files <- t.files - 1
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
      let slot = { holders = No_holder; min_next = horizon } in
      t.slots.(idx) <- Some slot;
      slot
  in
  let h = Host_id.to_int holder in
  (match slot.holders with
  | No_holder ->
    t.files <- t.files + 1;
    t.records <- t.records + 1;
    slot.holders <- One { holder = h; h_expiry = expiry }
  | One r when r.holder = h -> r.h_expiry <- expiry
  | One r ->
    let tbl = Holder_tbl.create 8 in
    Holder_tbl.replace tbl r.holder r.h_expiry;
    Holder_tbl.replace tbl h expiry;
    t.records <- t.records + 1;
    slot.holders <- Many tbl
  | Many tbl ->
    (* one probe: the length tells whether [replace] added a holder *)
    let before = Holder_tbl.length tbl in
    Holder_tbl.replace tbl h expiry;
    if Holder_tbl.length tbl > before then begin
      if before = 0 then t.files <- t.files + 1;
      t.records <- t.records + 1
    end);
  match expiry with
  | Lease.At at -> if Time.(at < slot.min_next) then slot.min_next <- at
  | Lease.Never -> ()

let remove_holder t file holder =
  match slot_opt t file with
  | Some slot -> (
    let h = Host_id.to_int holder in
    match slot.holders with
    | No_holder -> ()
    | One r when r.holder = h ->
      slot.holders <- No_holder;
      t.records <- t.records - 1;
      t.files <- t.files - 1;
      slot.min_next <- horizon
    | One _ -> ()
    | Many tbl ->
      let before = Holder_tbl.length tbl in
      Holder_tbl.remove tbl h;
      if Holder_tbl.length tbl < before then begin
        t.records <- t.records - 1;
        if before = 1 then begin
          t.files <- t.files - 1;
          slot.min_next <- horizon
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
    (* Keep a promoted slot's table allocated: commits drop files that are
       about to be re-read, so the holder table is hot again immediately. *)
    (match slot.holders with
    | No_holder | One _ -> slot.holders <- No_holder
    | Many tbl -> Holder_tbl.reset tbl);
    slot.min_next <- horizon
  | None -> ()

(* Iteration order over a holder table is unspecified, so every aggregate
   below is either order-independent (count, max, set union) or explicitly
   sorted — simulation determinism must not depend on hash layout. *)

let fold_live t file ~now ~init ~f =
  match live_slot t file ~now with
  | None -> init
  | Some slot -> (
    match slot.holders with
    | No_holder -> init
    | One r -> f (Host_id.of_int r.holder) r.h_expiry init
    | Many tbl ->
      Holder_tbl.fold (fun holder expiry acc -> f (Host_id.of_int holder) expiry acc) tbl init)

(* After the reap every resident record is live, so the count is the slot
   length — the grant path's O(1). *)
let live_count t file ~now =
  match live_slot t file ~now with None -> 0 | Some slot -> holders_len slot.holders

let live_holders t file ~now =
  fold_live t file ~now ~init:[] ~f:(fun holder _ acc -> holder :: acc)
  |> List.sort Host_id.compare

let live_holder_set t file ~now =
  fold_live t file ~now ~init:Host_id.Set.empty ~f:(fun holder _ acc -> Host_id.Set.add holder acc)

let live_deadline t file ~now ~init =
  fold_live t file ~now ~init ~f:(fun _ expiry acc -> Lease.expiry_max expiry acc)

(* One pass for the write path: the latest live expiry and the live holder
   set together, instead of two reap-check-and-fold rounds. *)
let write_snapshot t file ~now ~init =
  fold_live t file ~now ~init:(init, Host_id.Set.empty)
    ~f:(fun holder expiry (deadline, holders) ->
      (Lease.expiry_max expiry deadline, Host_id.Set.add holder holders))

let sweep t ~now =
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
  let best = ref horizon in
  Array.iter
    (function
      | Some slot -> if Time.(slot.min_next < !best) then best := slot.min_next
      | None -> ())
    t.slots;
  if Time.(!best < horizon) then Some !best else None

let resident_records (t : t) = t.records
let resident_files (t : t) = t.files
let reaped_total (t : t) = t.reaped_total

let clear (t : t) =
  t.slots <- [||];
  t.files <- 0;
  t.records <- 0
