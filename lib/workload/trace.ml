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

(* Op.compare_by_time on ops [i] and [j] of two parallel arrays. *)
let compare_ops (ats : int array) words i j =
  let a = Array.unsafe_get ats i and b = Array.unsafe_get ats j in
  if a < b then -1
  else if a > b then 1
  else
    let ka = Array.unsafe_get words i lsr file_shift
    and kb = Array.unsafe_get words j lsr file_shift in
    if ka < kb then -1 else if ka > kb then 1 else 0

module Builder = struct
  type nonrec t = { mutable ats : int array; mutable words : int array; mutable len : int }

  let create () = { ats = [||]; words = [||]; len = 0 }

  let length b = b.len

  let grow b =
    let capacity = Int.max 256 (2 * Array.length b.ats) in
    let extend a =
      let a' = Array.make capacity 0 in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    b.ats <- extend b.ats;
    b.words <- extend b.words

  let add b ~at ~client ~kind ~file ~temporary =
    let at = Time.to_us at and file = Vstore.File_id.to_int file in
    if at < 0 then invalid_arg (Printf.sprintf "Trace.Builder.add: negative arrival %d us" at);
    if client < 0 || client >= client_limit then
      invalid_arg
        (Printf.sprintf "Trace.Builder.add: client %d outside [0, %d)" client client_limit);
    if file < 0 || file >= file_limit then
      invalid_arg (Printf.sprintf "Trace.Builder.add: file %d outside [0, %d)" file file_limit);
    if b.len = Array.length b.ats then grow b;
    let word =
      (client lsl client_shift) lor (file lsl file_shift)
      lor (match kind with Op.Read -> 0 | Op.Write -> write_bit)
      lor if temporary then temp_bit else 0
    in
    Array.unsafe_set b.ats b.len at;
    Array.unsafe_set b.words b.len word;
    b.len <- b.len + 1

  let rotate b ~from ~mid =
    if from < 0 || from > mid || mid > b.len then invalid_arg "Trace.Builder.rotate: bad range";
    (* three reversals rotate [from, len) so [mid, len) comes first *)
    let reverse a lo hi =
      let lo = ref lo and hi = ref (hi - 1) in
      while !lo < !hi do
        let x = a.(!lo) in
        a.(!lo) <- a.(!hi);
        a.(!hi) <- x;
        incr lo;
        decr hi
      done
    in
    List.iter
      (fun a ->
        reverse a from mid;
        reverse a mid b.len;
        reverse a from b.len)
      [ b.ats; b.words ]

  (* [Array.stable_sort] and [List.stable_sort] are both stable, so sorting
     the index permutation puts the ops exactly where sorting the list of
     records would. *)
  let finish b =
    let n = b.len and ats = b.ats and words = b.words in
    b.ats <- [||];
    b.words <- [||];
    b.len <- 0;
    let order = Array.init n Fun.id in
    Array.stable_sort (compare_ops ats words) order;
    {
      ats = Array.map (fun i -> Array.unsafe_get ats i) order;
      words = Array.map (fun i -> Array.unsafe_get words i) order;
    }
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
