type state = Scheduled | Cancelled | Popped

(* The heap entry IS the handle: one allocation per push carries the key,
   the payload, the cancellation state, and the entry's current heap index.
   Tracking the index makes [cancel] an eager O(log n) heap delete instead
   of a tombstone: the simulator cancels almost every retransmission timer
   it arms (the reply usually wins the race), and with tombstones those
   dead timers kept the heap thousands of entries deep — every sift paid
   for them until a compaction pass threw them out.  Eager removal keeps
   the heap exactly the live events. *)
type 'a handle = {
  at : Time.t;
  seq : int;
  daemon : bool;
  payload : 'a;
  q : 'a t;
  mutable state : state;
  mutable pos : int;  (** index in [q.heap] while [state = Scheduled] *)
}

(* The heap keys — (at, seq) — are mirrored into two plain [int array]s
   alongside the entry array.  A sift compare then reads only unboxed ints
   from two dense arrays instead of chasing two entry pointers into the
   major heap. *)
and 'a t = {
  mutable heap : 'a handle array;
  mutable ats : int array;  (** [Time.to_us heap.(i).at] *)
  mutable seqs : int array;  (** [heap.(i).seq] *)
  mutable size : int;
  mutable next_seq : int;
  mutable daemon_live : int;  (** the subset of [size] marked daemon *)
  mutable cancelled_total : int;  (** lifetime cancellations, never reset *)
  vacant : 'a handle;  (** fills every slot at or past [size] *)
}

(* Min-heap ordered by (at, seq); seq breaks ties in insertion order.  The
   order is total, so pop order is independent of heap layout and an eager
   delete (which only moves the unrelated last entry) cannot perturb
   determinism. *)
let key_before q i j =
  let ai = Array.unsafe_get q.ats i and aj = Array.unsafe_get q.ats j in
  ai < aj || (ai = aj && Array.unsafe_get q.seqs i < Array.unsafe_get q.seqs j)

(* A vacated slot holds the queue's [vacant] entry rather than the entry
   that left it, so a popped or cancelled payload is released at once and
   the arrays keep their capacity when the heap empties (a timer-only heap
   empties every time an RPC's retry timer is cancelled).  [vacant] is
   never popped, so its payload is never read: it holds the immediate [()]
   because no value of ['a] exists when the queue is created. *)
let create () =
  let rec q =
    {
      heap = [||];
      ats = [||];
      seqs = [||];
      size = 0;
      next_seq = 0;
      daemon_live = 0;
      cancelled_total = 0;
      vacant =
        {
          at = Time.zero;
          seq = -1;
          daemon = false;
          payload = Obj.magic ();
          q;
          state = Popped;
          pos = -1;
        };
    }
  in
  q

let grow q =
  let capacity = Array.length q.heap in
  if q.size >= capacity then begin
    let capacity' = Int.max 16 (2 * capacity) in
    let heap' = Array.make capacity' q.vacant in
    let ats' = Array.make capacity' 0 in
    let seqs' = Array.make capacity' 0 in
    Array.blit q.heap 0 heap' 0 q.size;
    Array.blit q.ats 0 ats' 0 q.size;
    Array.blit q.seqs 0 seqs' 0 q.size;
    q.heap <- heap';
    q.ats <- ats';
    q.seqs <- seqs'
  end

(* Heap indices below [q.size] are in bounds by construction, so the sift
   path reads and writes the arrays unchecked. *)
let swap q i j =
  let ei = Array.unsafe_get q.heap i and ej = Array.unsafe_get q.heap j in
  Array.unsafe_set q.heap i ej;
  Array.unsafe_set q.heap j ei;
  ei.pos <- j;
  ej.pos <- i;
  let tmp = Array.unsafe_get q.ats i in
  Array.unsafe_set q.ats i (Array.unsafe_get q.ats j);
  Array.unsafe_set q.ats j tmp;
  let tmp = Array.unsafe_get q.seqs i in
  Array.unsafe_set q.seqs i (Array.unsafe_get q.seqs j);
  Array.unsafe_set q.seqs j tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if key_before q i parent then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < q.size && key_before q left i then left else i in
  let smallest = if right < q.size && key_before q right smallest then right else smallest in
  if smallest <> i then begin
    swap q i smallest;
    sift_down q smallest
  end

(* Move the entry at [src] into slot [dst], keeping the key mirrors and the
   entry's back-index in step. *)
let move q ~dst ~src =
  let e = Array.unsafe_get q.heap src in
  Array.unsafe_set q.heap dst e;
  e.pos <- dst;
  Array.unsafe_set q.ats dst (Array.unsafe_get q.ats src);
  Array.unsafe_set q.seqs dst (Array.unsafe_get q.seqs src)

(* Delete the entry at index [i]: standard indexed-heap removal — the last
   entry takes its slot and sifts whichever way restores the invariant.
   The freed tail slot gets [vacant], so it does not go on referencing the
   deleted entry or the moved one. *)
let remove_at q i =
  let last = q.size - 1 in
  q.size <- last;
  if i < last then begin
    move q ~dst:i ~src:last;
    Array.unsafe_set q.heap last q.vacant;
    sift_up q i;
    sift_down q i
  end
  else Array.unsafe_set q.heap last q.vacant

let take_seq q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  seq

let push q ?(daemon = false) ~at payload =
  let entry = { at; seq = take_seq q; daemon; payload; q; state = Scheduled; pos = q.size } in
  grow q;
  q.heap.(q.size) <- entry;
  Array.unsafe_set q.ats q.size (Time.to_us at);
  Array.unsafe_set q.seqs q.size entry.seq;
  q.size <- q.size + 1;
  if daemon then q.daemon_live <- q.daemon_live + 1;
  sift_up q (q.size - 1);
  entry

(* Idempotent: only a Scheduled handle touches the heap and counters, so
   cancelling twice (or cancelling an already-popped event) is a no-op. *)
let cancel handle =
  match handle.state with
  | Scheduled ->
    handle.state <- Cancelled;
    let q = handle.q in
    if handle.daemon then q.daemon_live <- q.daemon_live - 1;
    q.cancelled_total <- q.cancelled_total + 1;
    remove_at q handle.pos
  | Cancelled | Popped -> ()

let cancelled handle = handle.state = Cancelled

let pop_top q =
  if q.size = 0 then invalid_arg "Event_queue.pop_top: empty queue";
  let top = q.heap.(0) in
  remove_at q 0;
  top.state <- Popped;
  if top.daemon then q.daemon_live <- q.daemon_live - 1;
  top

let event_at (h : _ handle) = h.at
let event_payload (h : _ handle) = h.payload

let pop q =
  if q.size = 0 then None
  else
    let entry = pop_top q in
    Some (entry.at, entry.payload)

(* The top of the heap is always live — cancellation removes eagerly. *)
let peek_time q = if q.size = 0 then None else Some q.heap.(0).at

(* Non-allocating peek for the engine's run loop: [peek_time] boxes an
   option per event, which the bounded-run loop would pay on every step. *)
let next_us q = if q.size = 0 then max_int else Array.unsafe_get q.ats 0

let top_seq q = if q.size = 0 then max_int else Array.unsafe_get q.seqs 0

let length q = q.size

let is_empty q = q.size = 0

let live_nondaemon q = q.size - q.daemon_live

(* Lifetime counters for the profiler's engine-health series; [next_seq]
   already counts every push (and every seq taken for an outside FIFO), so
   only cancellations need a dedicated counter. *)
let total_pushed q = q.next_seq

let total_cancelled q = q.cancelled_total
