open Simtime

(* An op's word: bit 0 the temporary flag, bit 1 set for a write, the
   file id above them and the client index above the file.  The word
   shifted right by [file_shift] is then client * file_limit + file, so
   ordering those ints orders by client, then file. *)
let temp_bit = 1
let write_bit = 2
let file_shift = 2
let file_bits = 26
let file_limit = 1 lsl file_bits
let client_shift = file_shift + file_bits
let client_limit = 1 lsl 30

type t = { ats : int array;  (** arrival, µs *) words : int array }

(* Op.compare_by_time: (at, word lsr file_shift) of one op ranks strictly
   after that of another. *)
let[@inline] after (at : int) word (at' : int) word' =
  at > at' || (at = at' && word lsr file_shift > word' lsr file_shift)

(* Stable insertion sort of ops [lo, hi) of two parallel arrays. *)
let insertion_sort (ats : int array) words lo hi =
  for i = lo + 1 to hi - 1 do
    let at = Array.unsafe_get ats i and word = Array.unsafe_get words i in
    let j = ref (i - 1) in
    while
      !j >= lo && after (Array.unsafe_get ats !j) (Array.unsafe_get words !j) at word
    do
      Array.unsafe_set ats (!j + 1) (Array.unsafe_get ats !j);
      Array.unsafe_set words (!j + 1) (Array.unsafe_get words !j);
      decr j
    done;
    Array.unsafe_set ats (!j + 1) at;
    Array.unsafe_set words (!j + 1) word
  done

let small = 24

(* Stable merge sort of ops [lo, hi) of two parallel arrays, insertion
   sorting runs of at most [small], with [scratch_ats] and [scratch_words]
   holding at least half the run: each merge copies its left half out and
   merges it back with the right half, the left half winning ties. *)
let rec merge_sort ats words ~scratch_ats ~scratch_words lo hi =
  if hi - lo <= small then insertion_sort ats words lo hi
  else begin
    let mid = (lo + hi) lsr 1 in
    merge_sort ats words ~scratch_ats ~scratch_words lo mid;
    merge_sort ats words ~scratch_ats ~scratch_words mid hi;
    let left = mid - lo in
    Array.blit ats lo scratch_ats 0 left;
    Array.blit words lo scratch_words 0 left;
    let i = ref 0 and j = ref mid and k = ref lo in
    while !i < left do
      let at = Array.unsafe_get scratch_ats !i and word = Array.unsafe_get scratch_words !i in
      if !j < hi && after at word (Array.unsafe_get ats !j) (Array.unsafe_get words !j) then begin
        Array.unsafe_set ats !k (Array.unsafe_get ats !j);
        Array.unsafe_set words !k (Array.unsafe_get words !j);
        incr j
      end
      else begin
        Array.unsafe_set ats !k at;
        Array.unsafe_set words !k word;
        incr i
      end;
      incr k
    done
  end

module Builder = struct
  (* Ops live in fixed-size chunks, so appending never copies a full one
     and leaves no outgrown arrays behind.  The chunk being filled is
     [ats]/[words] with [fill] ops in it; the [full] chunks before it sit
     in [full_ats]/[full_words], a directory allocated when the first
     chunk fills.  Op [i] is then at offset [i land chunk_mask] of chunk
     [i lsr chunk_bits], which is the chunk being filled when that index
     is [full].  The first chunk doubles from 256 ops up to the chunk size,
     so a trace of a few hundred ops costs what an array that doubles
     does. *)
  let chunk_bits = 13
  let chunk_size = 1 lsl chunk_bits
  let chunk_mask = chunk_size - 1

  type nonrec t = {
    mutable ats : int array;
    mutable words : int array;
    mutable fill : int;
    mutable full : int;
    mutable full_ats : int array array;
    mutable full_words : int array array;
  }

  let create () = { ats = [||]; words = [||]; fill = 0; full = 0; full_ats = [||]; full_words = [||] }

  let length b = (b.full lsl chunk_bits) + b.fill

  (* A new array of [size] entries of [x], starting with [a]'s first [keep]. *)
  let resized a ~keep size x =
    let a' = Array.make size x in
    Array.blit a 0 a' 0 keep;
    a'

  let grow b =
    let capacity = Array.length b.ats in
    if capacity < chunk_size then begin
      let size = Int.min chunk_size (Int.max 256 (2 * capacity)) in
      b.ats <- resized b.ats ~keep:b.fill size 0;
      b.words <- resized b.words ~keep:b.fill size 0
    end
    else begin
      if b.full = Array.length b.full_ats then begin
        let size = Int.max 16 (2 * b.full) in
        b.full_ats <- resized b.full_ats ~keep:b.full size [||];
        b.full_words <- resized b.full_words ~keep:b.full size [||]
      end;
      Array.unsafe_set b.full_ats b.full b.ats;
      Array.unsafe_set b.full_words b.full b.words;
      b.full <- b.full + 1;
      b.ats <- Array.make chunk_size 0;
      b.words <- Array.make chunk_size 0;
      b.fill <- 0
    end

  let add b ~at ~client ~kind ~file ~temporary =
    let at = Time.to_us at and file = Vstore.File_id.to_int file in
    if at < 0 then invalid_arg (Printf.sprintf "Trace.Builder.add: negative arrival %d us" at);
    if client < 0 || client >= client_limit then
      invalid_arg
        (Printf.sprintf "Trace.Builder.add: client %d outside [0, %d)" client client_limit);
    if file < 0 || file >= file_limit then
      invalid_arg (Printf.sprintf "Trace.Builder.add: file %d outside [0, %d)" file file_limit);
    if b.fill = Array.length b.ats then grow b;
    let word =
      (client lsl client_shift) lor (file lsl file_shift)
      lor (match kind with Op.Read -> 0 | Op.Write -> write_bit)
      lor if temporary then temp_bit else 0
    in
    Array.unsafe_set b.ats b.fill at;
    Array.unsafe_set b.words b.fill word;
    b.fill <- b.fill + 1

  (* Chunk [c] of [directory], [current] being chunk [full]. *)
  let[@inline] chunk directory current ~full c =
    if c = full then current else Array.unsafe_get directory c

  (* Swaps entry [oi] of [a] with entry [oj] of [a']. *)
  let[@inline] swap_entries (a : int array) oi a' oj =
    let x = Array.unsafe_get a oi in
    Array.unsafe_set a oi (Array.unsafe_get a' oj);
    Array.unsafe_set a' oj x

  (* Swaps ops [i] and [j]. *)
  let swap b i j =
    let ci = i lsr chunk_bits and oi = i land chunk_mask in
    let cj = j lsr chunk_bits and oj = j land chunk_mask in
    let full = b.full in
    swap_entries (chunk b.full_ats b.ats ~full ci) oi (chunk b.full_ats b.ats ~full cj) oj;
    swap_entries (chunk b.full_words b.words ~full ci) oi (chunk b.full_words b.words ~full cj) oj

  let reverse b lo hi =
    let lo = ref lo and hi = ref (hi - 1) in
    while !lo < !hi do
      swap b !lo !hi;
      incr lo;
      decr hi
    done

  let rotate b ~from ~mid =
    let len = length b in
    if from < 0 || from > mid || mid > len then invalid_arg "Trace.Builder.rotate: bad range";
    (* three reversals rotate [from, len) so [mid, len) comes first *)
    reverse b from mid;
    reverse b mid len;
    reverse b from len

  (* A stable bucket sort on arrival.  Bucket [(at - first) lsr shift]
     covers a fixed width of arrivals, with [shift] the least that leaves
     at most n/8 buckets over [first, last]; arrivals order buckets, so
     only ops within one bucket need comparing.  Counting, a prefix sum
     and a scatter in append order, chunk by chunk, place each bucket's
     ops, still in append order, in the exact-size output arrays; each
     bucket is then sorted in place by a stable sort.  A bucket holds about
     eight ops on average, which the insertion sort orders; one-instant or
     clustered traces (an [--ops] file) fill a few large ones, which the
     merge sort keeps O(n log n), with scratch sized to half the widest
     bucket and allocated only when one holds more than [small] ops.  Stable
     sorts of one sequence by one order all agree, so this is exactly
     [List.stable_sort Op.compare_by_time] of the ops in append order. *)
  let finish b =
    let n = length b in
    let full = b.full and full_ats = b.full_ats and full_words = b.full_words in
    let last_ats = b.ats and last_words = b.words and fill = b.fill in
    b.ats <- [||];
    b.words <- [||];
    b.fill <- 0;
    b.full <- 0;
    b.full_ats <- [||];
    b.full_words <- [||];
    if n = 0 then { ats = [||]; words = [||] }
    else begin
      let first = ref max_int and last = ref min_int in
      for c = 0 to full do
        let ats = chunk full_ats last_ats ~full c in
        for i = 0 to (if c = full then fill else chunk_size) - 1 do
          let at = Array.unsafe_get ats i in
          if at < !first then first := at;
          if at > !last then last := at
        done
      done;
      let first = !first and span = !last - !first in
      let buckets = Int.max 1 (n lsr 3) in
      let shift = ref 0 in
      while span lsr !shift >= buckets do
        incr shift
      done;
      let shift = !shift in
      (* [starts.(k)] counts bucket [k - 1]'s ops, then holds where bucket
         [k] starts, then where its next op goes. *)
      let starts = Array.make ((span lsr shift) + 2) 0 in
      for c = 0 to full do
        let ats = chunk full_ats last_ats ~full c in
        for i = 0 to (if c = full then fill else chunk_size) - 1 do
          let k = ((Array.unsafe_get ats i - first) lsr shift) + 1 in
          Array.unsafe_set starts k (Array.unsafe_get starts k + 1)
        done
      done;
      let widest = ref 0 in
      for k = 1 to Array.length starts - 1 do
        let count = Array.unsafe_get starts k in
        if count > !widest then widest := count;
        Array.unsafe_set starts k (count + Array.unsafe_get starts (k - 1))
      done;
      let sorted_ats = Array.make n 0 and sorted_words = Array.make n 0 in
      for c = 0 to full do
        let ats = chunk full_ats last_ats ~full c and words = chunk full_words last_words ~full c in
        for i = 0 to (if c = full then fill else chunk_size) - 1 do
          let at = Array.unsafe_get ats i in
          let k = (at - first) lsr shift in
          let pos = Array.unsafe_get starts k in
          Array.unsafe_set starts k (pos + 1);
          Array.unsafe_set sorted_ats pos at;
          Array.unsafe_set sorted_words pos (Array.unsafe_get words i)
        done
      done;
      (* Bucket [k] now spans [starts.(k - 1), starts.(k)). *)
      let scratch = if !widest > small then !widest lsr 1 else 0 in
      let scratch_ats = Array.make scratch 0 and scratch_words = Array.make scratch 0 in
      let lo = ref 0 in
      for k = 0 to Array.length starts - 2 do
        let hi = Array.unsafe_get starts k in
        if hi - !lo > 1 then merge_sort sorted_ats sorted_words ~scratch_ats ~scratch_words !lo hi;
        lo := hi
      done;
      { ats = sorted_ats; words = sorted_words }
    end
end

let add_op b (op : Op.t) =
  Builder.add b ~at:op.at ~client:op.client ~kind:op.kind ~file:op.file ~temporary:op.temporary

let of_ops ops =
  let b = Builder.create () in
  List.iter (add_op b) ops;
  Builder.finish b

let length t = Array.length t.ats

let duration t =
  let n = length t in
  if n = 0 then Time.Span.zero else Time.Span.of_us t.ats.(n - 1)

let at t i = Time.of_us t.ats.(i)
let client t i = t.words.(i) lsr client_shift
let file t i = Vstore.File_id.of_int ((t.words.(i) lsr file_shift) land (file_limit - 1))
let kind t i = if t.words.(i) land write_bit = 0 then Op.Read else Op.Write
let temporary t i = t.words.(i) land temp_bit <> 0

let op t i =
  { Op.at = at t i; client = client t i; kind = kind t i; file = file t i; temporary = temporary t i }

let remap t ~f =
  let b = Builder.create () in
  for i = 0 to length t - 1 do
    add_op b (f (op t i))
  done;
  Builder.finish b

let partition t ~parts ~f =
  if parts < 1 then invalid_arg "Trace.partition: need at least one part";
  let part =
    Array.init (length t) (fun i ->
        let p = f i in
        if p < 0 || p >= parts then
          invalid_arg (Printf.sprintf "Trace.partition: op %d sent to part %d of %d" i p parts);
        p)
  in
  let sizes = Array.make parts 0 in
  Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) part;
  let out = Array.map (fun n -> { ats = Array.make n 0; words = Array.make n 0 }) sizes in
  let filled = Array.make parts 0 in
  Array.iteri
    (fun i p ->
      let k = filled.(p) in
      out.(p).ats.(k) <- t.ats.(i);
      out.(p).words.(k) <- t.words.(i);
      filled.(p) <- k + 1)
    part;
  out

type summary = {
  operations : int;
  reads : int;
  writes : int;
  temporary_ops : int;
  clients : int;
  files : int;
  duration_sec : float;
  read_rate_per_client : float;
  write_rate_per_client : float;
  read_write_ratio : float;
}

let summarize t =
  let reads = ref 0 and writes = ref 0 and temporary_ops = ref 0 in
  let clients = Int_tbl.create 8 and files = Int_tbl.create 64 in
  for i = 0 to length t - 1 do
    Int_tbl.replace clients (client t i) ();
    Int_tbl.replace files (Vstore.File_id.to_int (file t i)) ();
    if temporary t i then incr temporary_ops
    else match kind t i with Op.Read -> incr reads | Op.Write -> incr writes
  done;
  let duration_sec = Time.Span.to_sec (duration t) in
  let client_count = Int.max 1 (Int_tbl.length clients) in
  let per_client count =
    if duration_sec <= 0. then 0.
    else float_of_int count /. duration_sec /. float_of_int client_count
  in
  {
    operations = length t;
    reads = !reads;
    writes = !writes;
    temporary_ops = !temporary_ops;
    clients = Int_tbl.length clients;
    files = Int_tbl.length files;
    duration_sec;
    read_rate_per_client = per_client !reads;
    write_rate_per_client = per_client !writes;
    read_write_ratio =
      (if !writes = 0 then infinity else float_of_int !reads /. float_of_int !writes);
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>operations        %d@,reads             %d@,writes            %d@,temporary ops     %d@,\
     clients           %d@,files touched     %d@,duration          %.1f s@,\
     R (reads/s/client)  %.4f@,W (writes/s/client) %.4f@,read:write ratio  %.1f@]"
    s.operations s.reads s.writes s.temporary_ops s.clients s.files s.duration_sec
    s.read_rate_per_client s.write_rate_per_client s.read_write_ratio
