module File_id = Vstore.File_id

type t = {
  shards : int;
  seed : int64;
  ring : (int64 * int) array;  (* (token, shard), sorted by unsigned token *)
}

(* Tokens per shard: enough to smooth the per-shard arc-length imbalance
   at a small ring-construction cost. *)
let vnodes = 64

(* Each shard contributes [vnodes] tokens drawn from its own splitmix
   stream, so the ring for S shards is a strict superset of the ring for
   S-1 shards: growing the deployment moves only the keys the new shard
   captures, the consistent-hashing property. *)
let create ?(seed = 0x5eed_1ea5e5L) ~shards () =
  if shards < 1 then invalid_arg "Shard_map.create: need at least one shard";
  let ring = Array.make (shards * vnodes) (0L, 0) in
  for s = 0 to shards - 1 do
    let g = Prng.Splitmix.create ~seed:(Int64.add seed (Int64.of_int s)) in
    for v = 0 to vnodes - 1 do
      ring.((s * vnodes) + v) <- (Prng.Splitmix.next_int64 g, s)
    done
  done;
  Array.sort
    (fun (a, sa) (b, sb) ->
      match Int64.unsigned_compare a b with 0 -> compare sa sb | c -> c)
    ring;
  { shards; seed; ring }

let shards t = t.shards

(* File keys hash through a stream disjoint from the token streams (the
   complemented seed), so a file id colliding with a shard index cannot
   land exactly on that shard's first token. *)
let hash_file t file =
  let g =
    Prng.Splitmix.create
      ~seed:(Int64.add (Int64.lognot t.seed) (Int64.of_int (File_id.to_int file)))
  in
  Prng.Splitmix.next_int64 g

let owner t file =
  let h = hash_file t file in
  let n = Array.length t.ring in
  (* First token at or clockwise-after [h]; past the last token wraps to
     the ring's start. *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let token, _ = t.ring.(mid) in
    if Int64.unsigned_compare token h < 0 then lo := mid + 1 else hi := mid
  done;
  snd t.ring.(if !lo = n then 0 else !lo)

let spread t files =
  let counts = Array.make t.shards 0 in
  List.iter (fun file -> counts.(owner t file) <- counts.(owner t file) + 1) files;
  counts
