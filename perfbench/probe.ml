(* The host-speed probe.  The benchmark runs on a few cores of a shared host
   whose cores slow down by up to 2x for seconds at a time while other
   tenants run, and the simulator's wall time follows.  A dependent
   multiply chain stays steady through those episodes, while a sweep of
   loads and stores through a buffer the size of a core's L2 cache slows
   with them, and so does the simulator.

   While a phase runs, a real-time interval timer interrupts it every
   [interval_s] and times one sweep.  The phase's wall time, less the time
   of the sweeps that interrupted it, is converted to reference seconds:
   the time the phase would have taken had every sweep run in
   [ref_sweep_s].  Across children of four workloads, log throughput fell
   with log sweep time at slopes of 0.7 to 1.6 (see README.md), hence
   [elasticity]. *)

let words = 256 * 1024 (* 2 MiB *)
let stores = 200_000
let interval_s = 0.05

(* One sweep's time on a 2-core Intel Xeon VM while its neighbours are
   quiet: a reference second is about a wall second there. *)
let ref_sweep_s = 3.0e-4
let elasticity = 1.3

(* A sweep the vCPU was descheduled in counts as this long, so that one
   such sweep cannot swing a short phase's reading. *)
let max_sweep_s = 3. *. ref_sweep_s

let bytes = float_of_int (words * (Sys.word_size / 8))

type t = {
  buf : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** outside the OCaml heap, so that it barely paces the GC *)
  mutable next : int;  (** where the next sweep starts *)
  mutable sweeps : int;
  mutable sweep_s : float;  (** time spent sweeping *)
  mutable capped_s : float;  (** the same, each sweep capped at [max_sweep_s] *)
}

let create () =
  let buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  Bigarray.Array1.fill buf 0;
  { buf; next = 0; sweeps = 0; sweep_s = 0.; capped_s = 0. }

let sweep (t : t) =
  let t0 = Unix.gettimeofday () in
  let m = words - 1 in
  for i = t.next to t.next + stores - 1 do
    let j = i land m in
    Bigarray.Array1.unsafe_set t.buf j (Bigarray.Array1.unsafe_get t.buf ((j - 3) land m) + i)
  done;
  t.next <- (t.next + stores) land m;
  t.sweeps <- t.sweeps + 1;
  let d = Unix.gettimeofday () -. t0 in
  t.sweep_s <- t.sweep_s +. d;
  t.capped_s <- t.capped_s +. Float.min d max_sweep_s

(* What one phase saw: its wall time, its sweeps' capped time, and the
   time of those that interrupted it. *)
type reading = { wall_s : float; sweeps : int; capped_s : float; interrupt_s : float }

let last = ref { wall_s = 0.; sweeps = 0; capped_s = 0.; interrupt_s = 0. }

let set_timer s = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })

(* Runs [f] with sweeps interleaved, plus one on each side of it so that a
   phase shorter than the interval still has a reading.  The reading is
   left in {!last} rather than paired with [f]'s result: a pair that holds
   a workload's inputs next to a value read after the run can keep the
   inputs alive through it, which moved one workload's peak RSS by 2x. *)
let during (t : t) f =
  let sweeps0 = t.sweeps and capped0 = t.capped_s in
  sweep t;
  let inside0 = t.sweep_s in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sweep t)) in
  set_timer interval_s;
  let t0 = Unix.gettimeofday () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        set_timer 0.;
        Sys.set_signal Sys.sigalrm previous)
      f
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let interrupt_s = t.sweep_s -. inside0 in
  sweep t;
  last := { wall_s; sweeps = t.sweeps - sweeps0; capped_s = t.capped_s -. capped0; interrupt_s };
  r

let mean_sweep_s r = r.capped_s /. float_of_int r.sweeps

(* A phase's wall time in reference seconds. *)
let ref_seconds r = (r.wall_s -. r.interrupt_s) *. ((ref_sweep_s /. mean_sweep_s r) ** elasticity)
