(* Property-based tests (qcheck) on the core data structures and the
   protocol's safety invariant. *)

open Simtime

let span = Time.Span.of_sec
let sec = Time.of_sec

(* --- event queue: pop order == stable sort by (time, insertion) -------- *)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event queue pops a stable sort" ~count:300
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> ignore (Event_queue.push q ~at:(Time.of_us t) (t, i))) times;
      let rec drain acc =
        match Event_queue.pop q with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      let expected =
        List.mapi (fun i t -> (t, i)) times
        |> List.stable_sort (fun (t1, i1) (t2, i2) ->
               match compare t1 t2 with 0 -> compare i1 i2 | c -> c)
      in
      popped = expected)

let prop_event_queue_cancel =
  QCheck.Test.make ~name:"cancelled events never pop" ~count:200
    QCheck.(pair (list (int_bound 1000)) (list bool))
    (fun (times, cancels) ->
      let q = Event_queue.create () in
      let handles = List.map (fun t -> Event_queue.push q ~at:(Time.of_us t) t) times in
      let cancelled =
        List.mapi
          (fun i h ->
            let cancel = match List.nth_opt cancels i with Some b -> b | None -> false in
            if cancel then Event_queue.cancel h;
            cancel)
          handles
      in
      let expected_live = List.length (List.filter not cancelled) in
      let rec drain n = match Event_queue.pop q with Some _ -> drain (n + 1) | None -> n in
      drain 0 = expected_live)

(* Interleave push/pop/cancel against a naive model and assert, at every
   step, that (a) length tracks the model's live population exactly and
   (b) pops come out in stable (time, insertion) order of the live model. *)
let prop_event_queue_interleaved =
  QCheck.Test.make ~name:"interleaved push/pop/cancel: order and counts" ~count:300
    QCheck.(list (pair (int_bound 5) (int_bound 1_000)))
    (fun script ->
      let q = Event_queue.create () in
      (* model: (key = (at_us, seq)) for every live event; [pushed] keeps
         every handle ever created so cancels can target popped ones too *)
      let pushed = ref [] in
      let n_pushed = ref 0 in
      let live = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let key_le (t1, s1) (t2, s2) = t1 < t2 || (t1 = t2 && s1 < s2) in
      let model_min () =
        match !live with
        | [] -> None
        | k :: rest -> Some (List.fold_left (fun acc k -> if key_le k acc then k else acc) k rest)
      in
      let step (op, x) =
        (match op with
        | 0 | 1 | 2 ->
          (* push (weighted: the common operation) *)
          let key = (x, !seq) in
          let h = Event_queue.push q ~at:(Time.of_us x) key in
          incr seq;
          pushed := h :: !pushed;
          incr n_pushed;
          live := key :: !live
        | 3 | 4 ->
          (* cancel an arbitrary handle, possibly already popped/cancelled *)
          if !n_pushed > 0 then begin
            let h = List.nth !pushed (x mod !n_pushed) in
            Event_queue.cancel h;
            (* find the handle's key lazily: cancelling marks at most one
               live model entry dead; popped/cancelled handles match none *)
            match Event_queue.cancelled h with
            | false -> () (* was already popped: model unchanged *)
            | true ->
              let idx = !n_pushed - 1 - (x mod !n_pushed) in
              live := List.filter (fun (_, s) -> s <> idx) !live
          end
        | _ -> (
          match Event_queue.pop q, model_min () with
          | None, None -> ()
          | Some (_, got), Some expected ->
            if got <> expected then ok := false
            else live := List.filter (fun k -> k <> expected) !live
          | Some _, None | None, Some _ -> ok := false));
        if Event_queue.length q <> List.length !live then ok := false
      in
      List.iter step script;
      (* drain: the survivors come out as a stable sort of the live model *)
      let rec drain acc =
        match Event_queue.pop q with Some (_, k) -> drain (k :: acc) | None -> List.rev acc
      in
      let drained = drain [] in
      let expected =
        List.sort (fun (t1, s1) (t2, s2) -> match compare t1 t2 with 0 -> compare s1 s2 | c -> c) !live
      in
      !ok && drained = expected && Event_queue.is_empty q)

(* --- engine: heap and lanes fire in one (at, seq) order ----------------- *)

(* A random program of pushes onto the engine's heap (plain, daemon, later
   cancelled) and onto two lanes, run by a random mix of [step]s and
   bounded [run]s and then drained.  Every push is mirrored, at the same
   moment, into one reference [Event_queue] that holds every event, so the
   reference's pop order is the order a single heap would fire.  Each
   fired event pops the reference and must be the event it pops, at the
   instant it pops, with [pending] equal to the reference's length; a
   bounded run must fire exactly the reference's events up to its limit,
   and the unbounded run only while non-daemon work remains.  Delays are
   small, so heap events, lane entries and the two lanes tie often. *)
type engine_target = Heap | Daemon | Lane of int

type engine_action = Push of engine_target * int * engine_action list | Cancel of int

type engine_command = Step | Until of int

let rec gen_engine_actions ~max depth st =
  let n = if depth = 0 then 0 else QCheck.Gen.int_range 0 max st in
  List.init n (fun _ -> gen_engine_action depth st)

and gen_engine_action depth st =
  if QCheck.Gen.int_bound 5 st = 0 then Cancel (QCheck.Gen.int_bound 30 st)
  else
    let target =
      QCheck.Gen.frequencyl [ (3, Heap); (1, Daemon); (2, Lane 0); (2, Lane 1) ] st
    in
    let delay = QCheck.Gen.oneofl [ 0; 0; 0; 1; 2; 5; 13 ] st in
    Push (target, delay, gen_engine_actions ~max:3 (depth - 1) st)

let rec pp_engine_action = function
  | Cancel j -> Printf.sprintf "cancel %d" j
  | Push (target, delay, kids) ->
    Printf.sprintf "%s+%d[%s]"
      (match target with Heap -> "heap" | Daemon -> "daemon" | Lane k -> Printf.sprintf "lane%d" k)
      delay
      (String.concat "; " (List.map pp_engine_action kids))

let engine_program =
  QCheck.make
    ~print:(fun (initial, commands) ->
      Printf.sprintf "%s / %s"
        (String.concat "; " (List.map pp_engine_action initial))
        (String.concat " "
           (List.map (function Step -> "step" | Until d -> Printf.sprintf "until+%d" d) commands)))
    (fun st ->
      let initial = gen_engine_actions ~max:8 3 st in
      let command _ =
        if QCheck.Gen.int_bound 4 st < 3 then Step else Until (QCheck.Gen.int_bound 20 st)
      in
      (initial, List.init (QCheck.Gen.int_range 0 12 st) command))

let run_engine_program (initial, commands) =
  let engine = Engine.create () in
  let reference = Event_queue.create () in
  let ok = ref true in
  let check b = if not b then ok := false in
  let next_id = ref 0 in
  let cancellable = ref [] and n_cancellable = ref 0 in
  let tails = [| 0; 0 |] in
  let bound = ref max_int and unbounded = ref false in
  let fire_event = ref (fun (_ : int) (_ : engine_action list) -> ()) in
  let lanes =
    Array.init 2 (fun _ -> Engine.lane engine (fun _ (id, kids) -> !fire_event id kids))
  in
  let rec perform = function
    | Cancel j ->
      if !n_cancellable > 0 then begin
        let handle, mirror = List.nth !cancellable (j mod !n_cancellable) in
        Engine.cancel handle;
        Event_queue.cancel mirror
      end
    | Push (target, delay, kids) -> (
      let id = !next_id in
      incr next_id;
      let now = Time.to_us (Engine.now engine) in
      match target with
      | Heap | Daemon ->
        let daemon = target = Daemon and at = Time.of_us (now + delay) in
        let handle = Engine.schedule_at engine ~daemon at (fun () -> fired id kids) in
        let mirror = Event_queue.push reference ~daemon ~at id in
        cancellable := (handle, mirror) :: !cancellable;
        incr n_cancellable
      | Lane k ->
        let at = Int.max (now + delay) tails.(k) in
        tails.(k) <- at;
        Engine.lane_push lanes.(k) (Time.of_us at) (id, kids);
        ignore (Event_queue.push reference ~at:(Time.of_us at) id))
  and fired id kids =
    if !unbounded then check (Event_queue.live_nondaemon reference > 0);
    (match Event_queue.pop reference with
    | Some (at, expected) -> check (expected = id && Time.equal at (Engine.now engine))
    | None -> check false);
    check (Time.to_us (Engine.now engine) <= !bound);
    check (Engine.pending engine = Event_queue.length reference);
    List.iter perform kids
  in
  fire_event := fired;
  List.iter perform initial;
  check (Engine.pending engine = Event_queue.length reference);
  List.iter
    (fun command ->
      (match command with
      | Step ->
        let something = not (Event_queue.is_empty reference) in
        check (Engine.step engine = something)
      | Until d ->
        let limit = Time.to_us (Engine.now engine) + d in
        bound := limit;
        Engine.run ~until:(Time.of_us limit) engine;
        bound := max_int;
        check (Event_queue.next_us reference > limit);
        check (Time.to_us (Engine.now engine) = limit));
      check (Engine.pending engine = Event_queue.length reference))
    commands;
  unbounded := true;
  Engine.run engine;
  unbounded := false;
  check (Event_queue.live_nondaemon reference = 0);
  check (Engine.pending engine = Event_queue.length reference);
  (* what is left is daemon work, which a bounded run fires *)
  Engine.run ~until:(Time.of_us 1_000_000) engine;
  check (Event_queue.is_empty reference && Engine.pending engine = 0 && not (Engine.step engine));
  !ok

let prop_engine_lanes_match_one_heap =
  QCheck.Test.make ~name:"heap and lanes fire as one reference queue" ~count:1000 engine_program
    run_engine_program

(* --- lease table: reaping layout == naive live-filtered model ---------- *)

(* The reworked [Lease_table] reaps expired records for good — lazily on
   access and in bulk from sweeps — instead of filtering an append-only
   table at every query.  Reaping must be semantically invisible: every
   live-filtered aggregate has to agree with a naive model, under arbitrary
   interleavings of record / re-record / remove / drop-file / sweep and a
   monotone query clock.  The model drops a record once it expires, and the
   table's [on_reap] callbacks must report exactly those records, each
   file's in ascending (expiry, holder) order: every file is queried
   after every step, so each expiry is reaped in the step it happens.

   A shared file keeps its records in a list ordered by (expiry, holder),
   relinked by a walk back from the tail, so the script aims at the walk
   and the order:
   - bursts record up to 242 holders on one file at one instant, in
     descending holder order and with one expiry, so that a file holds
     more than 200 records (its node arrays and holder index grow several
     times) and equal expiries must be ordered by holder; one burst in
     five is of records that never expire, as an infinite term grants,
     which go to the tail unordered;
   - re-records move a resident expiry earlier, turn it into [Never] and
     back, or land at, or a microsecond before, the file's earliest
     expiry, so a relink walks past older records to the head;
   - a promoted file is dropped and recorded on again at once, reusing its
     emptied list.
   A narrow script draws its other records from 3 holders, so the same
   records are re-recorded over and over.  (Backwards server steps, where
   the reaping table {e deliberately} diverges by staying forgetful, are
   exercised by the fault campaign and documented in the interface.) *)
let lease_table_script =
  let open QCheck.Gen in
  (* 0 record, 1 re-record a resident holder, 2 remove, 3 drop-file,
     4 sweep, 5 advance the clock, 6 a descending burst, 7 re-record a
     resident holder at the file's earliest expiry, 8 drop and record *)
  let op =
    frequency
      [ (16, return 0); (3, return 1); (2, return 2); (1, return 3); (1, return 4); (2, return 5);
        (1, return 6); (2, return 7); (1, return 8) ]
  in
  QCheck.make
    ~print:QCheck.Print.(pair bool (list (quad int int int int)))
    ~shrink:QCheck.Shrink.(pair bool list)
    (pair bool (list_size (int_range 100 400) (quad op (int_bound 3) (int_bound 40) (int_bound 60))))

let files_0_3 = [ 0; 1; 2; 3 ]

let prop_lease_table_model =
  QCheck.Test.make ~name:"lease table: reaping invisible to live queries" ~count:300
    lease_table_script
    (fun (narrow, script) ->
      let open Leases in
      let t = Lease_table.create () in
      (* model: per file, holder -> expiry, one binding per resident record *)
      let model = Array.init 4 (fun _ -> Hashtbl.create 64) in
      (* this step's [on_reap] calls, latest first *)
      let reaped = ref [] in
      Lease_table.set_on_reap t (fun f h e ->
          reaped := (Vstore.File_id.to_int f, (e, Host.Host_id.to_int h)) :: !reaped);
      let now = ref (sec 0.) in
      let ok = ref true in
      let file i = Vstore.File_id.of_int i in
      let host i = Host.Host_id.of_int i in
      let model_live f =
        Hashtbl.fold
          (fun h e acc -> if Lease.expired e ~now:!now then acc else (h, e) :: acc)
          model.(f) []
      in
      (* the file's live records in list order: ascending (expiry, holder) *)
      let by_expiry live = List.sort compare (List.map (fun (h, e) -> (e, h)) live) in
      let check_file f =
        let live = model_live f in
        let holders = List.sort compare (List.map fst live) in
        if Lease_table.live_count t (file f) ~now:!now <> List.length holders then ok := false;
        if List.map Host.Host_id.to_int (Lease_table.live_holders t (file f) ~now:!now) <> holders
        then ok := false;
        let deadline =
          List.fold_left (fun acc (_, e) -> Lease.expiry_max acc e) (Lease.at !now) live
        in
        if Lease_table.live_deadline t (file f) ~now:!now ~init:(Lease.at !now) <> deadline then
          ok := false
      in
      let check_occupancy () =
        let live_by_file = List.map (fun f -> List.length (model_live f)) files_0_3 in
        let { Lease_table.files; records } = Lease_table.occupancy t ~now:!now in
        if files <> List.length (List.filter (fun n -> n > 0) live_by_file) then ok := false;
        if records <> List.fold_left ( + ) 0 live_by_file then ok := false
      in
      (* the [on_reap] calls the model expects this step, latest first *)
      let expected = ref [] in
      (* the model reaps the file's expired records, in (expiry, holder)
         order, wherever the table does: before a record, and in the
         queries that end the step *)
      let model_reap f =
        let expired =
          Hashtbl.fold
            (fun h e acc -> if Lease.expired e ~now:!now then (h, e) :: acc else acc)
            model.(f) []
        in
        List.iter (fun (h, _) -> Hashtbl.remove model.(f) h) expired;
        List.iter (fun k -> expected := (f, k) :: !expected) (by_expiry expired)
      in
      let record f h e =
        model_reap f;
        Lease_table.record t (file f) (host h) e ~now:!now;
        Hashtbl.replace model.(f) h e
      in
      let drop f =
        Lease_table.drop_file t (file f);
        Hashtbl.reset model.(f)
      in
      let after_us e us =
        match Lease.deadline e with
        | Some at -> Lease.at (Time.of_us (Int.max 0 (Time.to_us at + us)))
        | None -> Lease.at (Time.add !now (span 1.))
      in
      let step (op, f, h, x) =
        let h' = if narrow then h mod 3 else h in
        (match op with
        | 0 ->
          (* occasionally Never; an offset of 0 records an already-expired lease *)
          let e =
            if x mod 7 = 0 then Lease.never else Lease.at (Time.add !now (span (float_of_int x)))
          in
          record f h' e
        | 1 -> (
          (* re-record a resident holder: a finite expiry moves earlier
             (possibly into the past) or becomes Never; Never becomes finite *)
          match List.sort compare (model_live f) with
          | [] -> ()
          | live ->
            let h, e = List.nth live (h mod List.length live) in
            let e =
              match Lease.deadline e with
              | Some _ when x mod 3 = 0 -> Lease.never
              | Some _ -> after_us e (-((x + 1) * 100_000))
              | None -> Lease.at (Time.add !now (span (float_of_int x /. 10.)))
            in
            record f h e)
        | 2 ->
          Lease_table.remove_holder t (file f) (host h');
          Hashtbl.remove model.(f) h'
        | 3 -> drop f
        | 4 -> ignore (Lease_table.sweep t ~now:!now)
        | 5 ->
          (* advance the server clock (monotone) *)
          now := Time.add !now (span (float_of_int x /. 10.))
        | 6 ->
          (* one expiry for the whole burst; 0 records already-expired ones *)
          let e =
            if h mod 5 = 4 then Lease.never else Lease.at (Time.add !now (span (float_of_int h /. 2.)))
          in
          for k = 1 + (4 * x) downto 0 do
            record f k e
          done
        | 7 -> (
          (* re-record a resident holder at the earliest expiry (ties are
             ordered by holder) or one or two microseconds before it *)
          match model_live f with
          | [] -> ()
          | live ->
            let earliest, _ = List.hd (by_expiry live) in
            let h, _ = List.nth live (h mod List.length live) in
            record f h (after_us earliest (-(x mod 3))))
        | _ ->
          drop f;
          for k = 2 + (x mod 5) downto 0 do
            record f (h + k) (Lease.at (Time.add !now (span (float_of_int (k + 1) /. 2.))))
          done);
        List.iter check_file files_0_3;
        (* [occupancy] sweeps as a side effect; checking it after every op
           would keep the table freshly swept and starve the lazy
           reap-on-access path, so only audit it where a sweep happened *)
        if op = 4 then check_occupancy ();
        (* each file's reaps, in call order, are the model's: its expired
           records in ascending (expiry, holder) order at each reap *)
        List.iter model_reap files_0_3;
        let calls = List.rev !reaped and want = List.rev !expected in
        List.iter
          (fun f ->
            let of_file = List.filter_map (fun (f', k) -> if f' = f then Some k else None) in
            if of_file calls <> of_file want then ok := false)
          files_0_3;
        if List.length calls <> List.length want then ok := false;
        reaped := [];
        expected := []
      in
      List.iter step script;
      check_occupancy ();
      !ok)

(* --- lease table: sweeps over a wide file range ------------------------- *)

(* The table keeps its slots in 256-file chunks, each with a bitmap of
   its resident slots, 32 to a word, and a sweep walks the set bits chunk
   by chunk.  The model above uses files 0-3, all in one word; this script
   spreads files over 0-600, half of them drawn from ids on either side of
   a word edge (of 32-slot words, and of the 63-slot words the table once
   kept) or of a chunk edge (256, 512).  Only records and sweeps reap here
   (no per-step queries), so most expiries wait for a sweep.  Every reap
   pass must report exactly the model's expired records in ascending
   (file, expiry, holder) order — a sweep visits files in ascending id
   order — [occupancy] must match the model, and a sweep must report a
   finite expiry whenever the model holds one.  Bursts record up to 242 holders on one file at one
   instant, in descending holder order and with one expiry (one burst in
   six never expires), and a dropped file is recorded on again at once,
   so sweeps also reap long runs of equal expiries and reused lists. *)
let wide_files = 601

let lease_table_wide_script =
  let open QCheck.Gen in
  let edges =
    [| 0; 1; 30; 31; 32; 33; 61; 62; 63; 64; 65; 95; 96; 124; 125; 126; 127; 128; 159; 160; 187;
       188; 189; 190; 191; 200; 254; 255; 256; 257; 511; 512; 513; wide_files - 1 |]
  in
  let file =
    oneof [ map (Array.get edges) (int_bound (Array.length edges - 1)); int_bound (wide_files - 1) ]
  in
  (* 0 record, 1 remove, 2 drop-file, 3 sweep, 4 occupancy, 5 advance the
     clock, 6 a descending burst, 7 drop and record *)
  let op =
    frequency
      [ (12, return 0); (2, return 1); (1, return 2); (2, return 3); (2, return 4); (3, return 5);
        (1, return 6); (1, return 7) ]
  in
  QCheck.make
    ~print:QCheck.Print.(list (quad int int int int))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 100 400) (quad op file (int_bound 5) (int_bound 60)))

let prop_lease_table_wide =
  QCheck.Test.make ~name:"lease table: sweeps over a wide file range" ~count:300
    lease_table_wide_script
    (fun script ->
      let open Leases in
      let t = Lease_table.create () in
      (* model: per file, holder -> expiry, one binding per resident record *)
      let model = Array.init wide_files (fun _ -> Hashtbl.create 8) in
      let fold_model f init =
        let acc = ref init in
        Array.iteri (fun file tbl -> Hashtbl.iter (fun h e -> acc := f file h e !acc) tbl) model;
        !acc
      in
      (* this step's [on_reap] calls as (file, expiry, holder), latest first *)
      let reaped = ref [] in
      Lease_table.set_on_reap t (fun f h e ->
          reaped := (Vstore.File_id.to_int f, e, Host.Host_id.to_int h) :: !reaped);
      let now = ref (sec 0.) in
      let ok = ref true in
      let check b = if not b then ok := false in
      let file i = Vstore.File_id.of_int i in
      let host i = Host.Host_id.of_int i in
      (* The step reaped exactly the model's expired records on [files], in
         ascending (file, expiry, holder) order. *)
      let expect_reaps files =
        let expired =
          List.concat_map
            (fun f ->
              Hashtbl.fold
                (fun h e acc -> if Lease.expired e ~now:!now then (f, e, h) :: acc else acc)
                model.(f) [])
            files
        in
        List.iter (fun (f, _, h) -> Hashtbl.remove model.(f) h) expired;
        check (List.rev !reaped = List.sort compare expired);
        reaped := []
      in
      let all_files = List.init wide_files Fun.id in
      let record f h e =
        Lease_table.record t (file f) (host h) e ~now:!now;
        expect_reaps [ f ];
        Hashtbl.replace model.(f) h e
      in
      let drop f =
        Lease_table.drop_file t (file f);
        Hashtbl.reset model.(f);
        expect_reaps []
      in
      let step (op, f, h, x) =
        match op with
        | 0 ->
          let e =
            if x mod 7 = 0 then Lease.never else Lease.at (Time.add !now (span (float_of_int x)))
          in
          record f h e
        | 1 ->
          Lease_table.remove_holder t (file f) (host h);
          Hashtbl.remove model.(f) h;
          expect_reaps []
        | 2 -> drop f
        | 3 ->
          (* the verdict may err only towards re-arming: a slot's bound can
             stay finite after its finite record is removed or re-recorded
             as never, but a resident finite record must always be seen *)
          let finite_left = Lease_table.sweep t ~now:!now in
          expect_reaps all_files;
          check (finite_left || fold_model (fun _ _ e acc -> acc && Lease.is_never e) true)
        | 4 ->
          let { Lease_table.files; records } = Lease_table.occupancy t ~now:!now in
          expect_reaps all_files;
          check
            (files = Array.fold_left (fun n tbl -> if Hashtbl.length tbl > 0 then n + 1 else n) 0 model);
          check (records = Array.fold_left (fun n tbl -> n + Hashtbl.length tbl) 0 model)
        | 5 ->
          now := Time.add !now (span (float_of_int x /. 10.));
          expect_reaps []
        | 6 ->
          let e = if h = 5 then Lease.never else Lease.at (Time.add !now (span (float_of_int h))) in
          for k = 1 + (4 * x) downto 0 do
            record f k e
          done
        | _ ->
          drop f;
          for k = 2 downto 0 do
            record f (h + k) (Lease.at (Time.add !now (span (float_of_int (x + k) /. 10.))))
          done
      in
      List.iter step script;
      !ok)

(* --- the int table agrees with a map ----------------------------------- *)

(* [Int_tbl] against [Map.Make (Int)] under random programs of binds,
   removals, lookups, folds and resets.  Each program draws its keys from a
   pool of 48 random ints: consecutive ids would spread evenly under the
   table's multiplicative hash, random ones collide, so probe runs form,
   runs wrap past the end of the array, and removals shift entries back,
   across the wrap too.  After every step the table must have the model's
   length and find every model binding (a removal that left a hole inside
   a run would strand the keys behind it); a fold or iter must visit every
   binding exactly once. *)
let int_tbl_script =
  let open QCheck.Gen in
  (* 0 replace, 1 add, 2 remove, 3 look up, 4 fold and iter, 5 reset;
     the key is an index into the pool *)
  let op =
    frequency
      [ (6, return 0); (2, return 1); (5, return 2); (3, return 3); (1, return 4); (1, return 5) ]
  in
  QCheck.make
    ~print:QCheck.Print.(triple int (array int) (list (triple int int int)))
    ~shrink:QCheck.Shrink.(triple nil nil list)
    (triple (int_bound 40)
       (array_size (return 48) (int_bound 1_000_000))
       (list_size (int_range 50 400) (triple op (int_bound 47) small_nat)))

let prop_int_tbl_model =
  QCheck.Test.make ~name:"int table agrees with a model map" ~count:1000 int_tbl_script
    (fun (initial, pool, script) ->
      let module M = Map.Make (Int) in
      let t = Int_tbl.create initial in
      let model = ref M.empty in
      let ok = ref true in
      let check b = if not b then ok := false in
      let visits () =
        let folded = Int_tbl.fold (fun k v acc -> (k, v) :: acc) t [] in
        let iterated = ref [] in
        Int_tbl.iter (fun k v -> iterated := (k, v) :: !iterated) t;
        check (List.sort compare folded = M.bindings !model);
        check (List.sort compare !iterated = M.bindings !model)
      in
      let step (op, i, v) =
        let k = pool.(i) in
        (match op with
        | 0 ->
          Int_tbl.replace t k v;
          model := M.add k v !model
        | 1 ->
          Int_tbl.add t k v;
          model := M.add k v !model
        | 2 ->
          Int_tbl.remove t k;
          model := M.remove k !model
        | 3 ->
          check (Int_tbl.find_opt t k = M.find_opt k !model);
          check (Int_tbl.mem t k = M.mem k !model);
          check ((try Some (Int_tbl.find t k) with Not_found -> None) = M.find_opt k !model);
          check (Int_tbl.find_or t k (-1) = Option.value (M.find_opt k !model) ~default:(-1))
        | 4 -> visits ()
        | _ ->
          Int_tbl.reset t;
          model := M.empty);
        check (Int_tbl.length t = M.cardinal !model);
        M.iter (fun k v -> check (Int_tbl.find_opt t k = Some v)) !model
      in
      List.iter step script;
      visits ();
      !ok)

(* --- a breakdown axis agrees with a map --------------------------------- *)

(* [Leases.Breakdown] against a model map of counts under random programs
   of bumps and samples, keys drawn from a pool of random ints as above.
   Every sample must return one flat array of (key, increment) pairs
   holding exactly the keys bumped since the previous one, each with its
   increment, in ascending key order and with no zero increment, and the
   increments of all samples so far must sum to the axis total. *)
let breakdown_script =
  let open QCheck.Gen in
  (* [None] samples; [Some i] bumps the pool's key [i] *)
  let op = frequency [ (1, return None); (6, map Option.some (int_bound 23)) ] in
  QCheck.make
    ~print:QCheck.Print.(pair (array int) (list (option int)))
    ~shrink:QCheck.Shrink.(pair nil list)
    (pair (array_size (return 24) (int_bound 1_000_000)) (list_size (int_range 20 300) op))

let prop_breakdown_model =
  QCheck.Test.make ~name:"breakdown samples agree with a model map" ~count:500 breakdown_script
    (fun (pool, script) ->
      let module M = Map.Make (Int) in
      let axis = (Leases.Breakdown.create ()).Leases.Breakdown.reads_by_file in
      let counts = ref M.empty and at_sample = ref M.empty and sampled = ref 0 in
      let ok = ref true in
      let check b = if not b then ok := false in
      let rec ascending = function
        | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      let sample () =
        let flat = Leases.Breakdown.sample axis in
        check (Array.length flat mod 2 = 0);
        let deltas =
          List.init (Array.length flat / 2) (fun i -> (flat.(2 * i), flat.((2 * i) + 1)))
        in
        let expected =
          M.fold
            (fun k n acc ->
              let before = Option.value (M.find_opt k !at_sample) ~default:0 in
              if n <> before then (k, n - before) :: acc else acc)
            !counts []
        in
        check (deltas = List.rev expected);
        check (ascending deltas);
        check (List.for_all (fun (_, d) -> d <> 0) deltas);
        sampled := List.fold_left (fun acc (_, d) -> acc + d) !sampled deltas;
        check (!sampled = Leases.Breakdown.total axis);
        at_sample := !counts
      in
      List.iter
        (function
          | None -> sample ()
          | Some i ->
            let k = pool.(i) in
            Leases.Breakdown.bump axis k;
            counts := M.update k (fun n -> Some (1 + Option.value n ~default:0)) !counts)
        script;
      sample ();
      !ok)

(* --- the lease safety inequality --------------------------------------- *)

let prop_client_never_outlives_server =
  QCheck.Test.make ~name:"client deadline <= server deadline" ~count:500
    QCheck.(triple (float_bound_inclusive 100.) (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (term_s, transit_s, skew_s) ->
      let term = Leases.Lease.term_of_sec term_s in
      let granted_at = sec 50. in
      (* the client receives the grant no earlier than it was made *)
      let received_at = Time.add granted_at (span transit_s) in
      let server = Leases.Lease.server_expiry term ~granted_at in
      let client =
        Leases.Lease.client_expiry term ~received_at ~transit_allowance:(span transit_s)
          ~skew_allowance:(span skew_s)
      in
      match Leases.Lease.deadline server, Leases.Lease.deadline client with
      | Some s, Some c ->
        (* either the client deadline precedes the server's, or the lease
           was already expired when it arrived (clamped effective term):
           in both cases there is no instant where the client trusts a
           lease the server considers dead *)
        Time.(c <= s) || Time.(c <= received_at)
      | _ -> false)

(* --- store atomicity bookkeeping ---------------------------------------- *)

let prop_store_current_at_implies_was_current =
  QCheck.Test.make ~name:"current_at t in [a,b] => was_current_during [a,b]" ~count:300
    QCheck.(triple (list_of_size (Gen.int_range 0 8) (int_range 1 100)) (int_range 0 120) (int_range 0 50))
    (fun (gaps, probe, width) ->
      let store = Vstore.Store.create () in
      let f = Vstore.File_id.of_int 0 in
      let t = ref 0 in
      List.iter
        (fun gap ->
          t := !t + gap;
          ignore (Vstore.Store.commit store f ~at:(Time.of_us !t)))
        gaps;
      let a = Time.of_us probe in
      let b = Time.of_us (probe + width) in
      let v = Vstore.Store.current_at store f a in
      Vstore.Store.was_current_during store f v ~start:a ~finish:b)

let prop_store_stale_version_rejected =
  QCheck.Test.make ~name:"superseded version fails atomicity after supersession" ~count:300
    QCheck.(pair (int_range 1 1000) (int_range 1 1000))
    (fun (commit_at, gap) ->
      let store = Vstore.Store.create () in
      let f = Vstore.File_id.of_int 0 in
      ignore (Vstore.Store.commit store f ~at:(Time.of_us commit_at));
      let after = Time.of_us (commit_at + gap) in
      not
        (Vstore.Store.was_current_during store f Vstore.Version.initial ~start:after ~finish:after))

(* --- analytic model ------------------------------------------------------ *)

let params_gen =
  QCheck.Gen.(
    let* read_rate = float_range 0.01 10. in
    let* write_rate = float_range 0.001 1. in
    let* sharing = int_range 1 50 in
    let* n_clients = int_range 1 100 in
    return
      {
        Analytic.Params.n_clients;
        read_rate;
        write_rate;
        sharing;
        m_prop = 0.0005;
        m_proc = 0.001;
        epsilon = 0.1;
      })

let params_arb = QCheck.make ~print:(Format.asprintf "%a" Analytic.Params.pp) params_gen

let prop_load_monotone_s1 =
  QCheck.Test.make ~name:"S=1 load monotone non-increasing in term" ~count:200 params_arb
    (fun p ->
      let p = { p with Analytic.Params.sharing = 1 } in
      let load t = Analytic.Model.consistency_load p (Analytic.Model.Finite t) in
      let rec check prev = function
        | [] -> true
        | t :: rest ->
          let l = load t in
          l <= prev +. 1e-9 && check l rest
      in
      check (load 0.) [ 0.5; 1.; 2.; 5.; 10.; 50.; 200. ])

let prop_break_even_correct =
  QCheck.Test.make ~name:"load below zero-term load beyond break-even" ~count:200 params_arb
    (fun p ->
      match Analytic.Model.break_even_term p with
      | None -> true
      | Some tc ->
        let allowances = p.Analytic.Params.m_prop +. (2. *. p.Analytic.Params.m_proc) +. p.Analytic.Params.epsilon in
        let ts = tc +. allowances +. 1e-3 in
        Analytic.Model.consistency_load p (Analytic.Model.Finite ts)
        < Analytic.Model.consistency_load p (Analytic.Model.Finite 0.) +. 1e-9)

let prop_relative_load_at_zero_is_one =
  QCheck.Test.make ~name:"relative load at zero term = 1" ~count:100 params_arb (fun p ->
      Float.abs (Analytic.Model.relative_load p (Analytic.Model.Finite 0.) -. 1.) < 1e-9)

(* --- clocks: reading is piecewise linear and invertible ------------------- *)

let prop_clock_inverse =
  QCheck.Test.make ~name:"clock: engine_time_of_local inverts now" ~count:300
    QCheck.(triple (float_range (-0.9) 2.) (float_range 0. 50.) (float_range 0. 100.))
    (fun (drift, offset_s, advance_s) ->
      let engine = Engine.create () in
      let clock = Clock.create engine ~offset:(span offset_s) ~drift () in
      ignore (Engine.schedule_at engine (sec advance_s) (fun () -> ()));
      Engine.run engine;
      let local = Clock.now clock in
      (* a strictly future local instant maps back to a future engine
         instant that, when reached, reads exactly that local time *)
      let future_local = Time.add local (span 5.) in
      let engine_target = Clock.engine_time_of_local clock future_local in
      ignore (Engine.schedule_at engine engine_target (fun () -> ()));
      Engine.run engine;
      Float.abs (Time.to_sec (Clock.now clock) -. Time.to_sec future_local) < 1e-4)

(* --- namespace agrees with a model map ------------------------------------ *)

type ns_op =
  | Ns_bind of string * int
  | Ns_unbind of string
  | Ns_rename of string * string

let ns_op_gen =
  QCheck.Gen.(
    let name = map (Printf.sprintf "n%d") (int_range 0 5) in
    let* kind = int_range 0 2 in
    match kind with
    | 0 ->
      let* n = name in
      let* f = int_range 0 20 in
      return (Ns_bind (n, f))
    | 1 ->
      let* n = name in
      return (Ns_unbind n)
    | _ ->
      let* a = name in
      let* b = name in
      return (Ns_rename (a, b)))

let ns_op_to_string = function
  | Ns_bind (n, f) -> Printf.sprintf "bind %s->%d" n f
  | Ns_unbind n -> Printf.sprintf "unbind %s" n
  | Ns_rename (a, b) -> Printf.sprintf "rename %s->%s" a b

let prop_namespace_model =
  QCheck.Test.make ~name:"namespace agrees with a model map" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map ns_op_to_string ops))
       QCheck.Gen.(list_size (int_range 0 40) ns_op_gen))
    (fun ops ->
      let next = ref 0 in
      let fresh_id () =
        let id = Vstore.File_id.of_int !next in
        incr next;
        id
      in
      let ns = Vstore.Namespace.create ~fresh_id in
      ignore (Vstore.Namespace.make_directory ns "/d");
      let model = Hashtbl.create 8 in
      List.iter
        (fun op ->
          match op with
          | Ns_bind (name, f) ->
            Vstore.Namespace.bind ns ~dir:"/d" ~name (Vstore.File_id.of_int (1000 + f));
            Hashtbl.replace model name (1000 + f)
          | Ns_unbind name -> (
            match Hashtbl.find_opt model name with
            | Some _ ->
              Vstore.Namespace.unbind ns ~dir:"/d" ~name;
              Hashtbl.remove model name
            | None -> (
              try
                Vstore.Namespace.unbind ns ~dir:"/d" ~name;
                raise Exit
              with Not_found -> ()))
          | Ns_rename (a, b) -> (
            match Hashtbl.find_opt model a with
            | Some f ->
              Vstore.Namespace.rename ns ~dir:"/d" ~old_name:a ~new_name:b;
              Hashtbl.remove model a;
              Hashtbl.replace model b f
            | None -> (
              try
                Vstore.Namespace.rename ns ~dir:"/d" ~old_name:a ~new_name:b;
                raise Exit
              with Not_found -> ())))
        ops;
      let listed = Vstore.Namespace.bindings ns ~dir:"/d" in
      let expected =
        Hashtbl.fold (fun name f acc -> (name, Vstore.File_id.of_int f) :: acc) model []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      listed = expected)

(* --- trace round trip ----------------------------------------------------- *)

let op_gen =
  QCheck.Gen.(
    let* at = int_range 0 1_000_000 in
    let* client = int_range 0 5 in
    let* is_write = bool in
    let* f = int_range 0 50 in
    let* temporary = bool in
    return
      {
        Workload.Op.at = Time.of_us at;
        client;
        kind = (if is_write then Workload.Op.Write else Workload.Op.Read);
        file = Vstore.File_id.of_int f;
        temporary;
      })

let trace_arb =
  QCheck.make
    ~print:(fun ops -> Workload.Trace_io.print (Workload.Trace.of_ops ops))
    QCheck.Gen.(list_size (int_range 0 60) op_gen)

let prop_trace_roundtrip =
  QCheck.Test.make ~name:"trace print/parse roundtrip" ~count:200 trace_arb (fun ops ->
      let trace = Workload.Trace.of_ops ops in
      let text = Workload.Trace_io.print trace in
      match Workload.Trace_io.parse text with
      | Ok back -> Workload.Trace_io.print back = text
      | Error _ -> false)

(* --- packed traces against the list of records ------------------------- *)

(* Few instants, clients and files, so many ops tie on every sort key and
   differ only in kind and temporary flag, where only append order can
   decide; and the field edges: the largest arrival, client and file the
   packed word holds. *)
let edge_op_gen =
  QCheck.Gen.(
    let* at = frequency [ (8, int_range 0 3); (1, return max_int) ] in
    let* client = frequency [ (8, int_range 0 2); (1, return (Workload.Trace.client_limit - 1)) ] in
    let* f = frequency [ (8, int_range 0 2); (1, return (Workload.Trace.file_limit - 1)) ] in
    let* is_write = bool in
    let* temporary = bool in
    return
      {
        Workload.Op.at = Time.of_us at;
        client;
        kind = (if is_write then Workload.Op.Write else Workload.Op.Read);
        file = Vstore.File_id.of_int f;
        temporary;
      })

let ops_of_trace trace = List.init (Workload.Trace.length trace) (Workload.Trace.op trace)

let print_ops ops = String.concat "\n" (List.map (Format.asprintf "%a" Workload.Op.pp) ops)

(* An op at [at] with the tie-prone fields of [edge_op_gen]. *)
let op_at_gen at =
  QCheck.Gen.map (fun (op : Workload.Op.t) -> { op with at = Time.of_us at }) edge_op_gen

(* Arrival shapes for every path of [Builder.finish]'s bucket sort: zero
   or one op; the tie-heavy edge ops, whose [max_int] arrivals leave the
   rest in one bucket; every op at one instant, one large bucket for the
   merge sort; two dense clusters far apart; arrivals on either side of
   power-of-two bucket edges, with duplicates; and a spread of mostly
   distinct arrivals, one or two to a bucket. *)
let shaped_ops_gen =
  QCheck.Gen.(
    let n_ops hi = int_range 2 hi in
    frequency
      [
        (1, list_size (int_range 0 1) edge_op_gen);
        (3, list_size (int_range 0 80) edge_op_gen);
        ( 2,
          let* at = int_range 0 1_000_000 in
          list_size (n_ops 300) (op_at_gen at) );
        ( 2,
          let* a = int_range 0 1_000 and* gap = int_range 1_000_000 1_000_000_000 in
          list_size (n_ops 300)
            (let* near_b = bool and* d = int_range 0 5 in
             op_at_gen ((if near_b then a + gap else a) + d)) );
        ( 2,
          let* first = int_range 0 100 and* shift = int_range 0 8 in
          list_size (n_ops 200)
            (let* k = int_range 0 40 and* d = int_range (-1) 1 in
             op_at_gen (first + Int.max 0 ((k lsl shift) + d))) );
        ( 2,
          let* span = int_range 1 10_000 in
          list_size (n_ops 200) (int_range 0 span >>= op_at_gen) );
      ])

(* Appends [ops], rotates [from, mid) behind the ops after [mid], and
   checks the trace against the list sort of the same splice. *)
let builds_as_list_sort ops ~from ~mid =
  let b = Workload.Trace.Builder.create () in
  List.iter
    (fun (op : Workload.Op.t) ->
      Workload.Trace.Builder.add b ~at:op.at ~client:op.client ~kind:op.kind ~file:op.file
        ~temporary:op.temporary)
    ops;
  Workload.Trace.Builder.rotate b ~from ~mid;
  let slice lo hi = List.filteri (fun i _ -> i >= lo && i < hi) ops in
  let appended = slice 0 from @ slice mid (List.length ops) @ slice from mid in
  ops_of_trace (Workload.Trace.Builder.finish b)
  = List.stable_sort Workload.Op.compare_by_time appended

(* Each shape is also appended with a rotate of a random range, as the
   Poisson generator rotates its temporary streams. *)
let prop_packed_matches_list =
  QCheck.Test.make ~name:"packed trace = List.stable_sort" ~count:1_000
    (QCheck.make
       ~print:(fun (ops, a, b) -> Printf.sprintf "rotate from %d mid %d\n%s" a b (print_ops ops))
       QCheck.Gen.(
         let* ops = shaped_ops_gen in
         let n = List.length ops in
         let* rotated = bool in
         if not rotated then return (ops, n, n)
         else
           let* a = int_range 0 n in
           let* b = int_range a n in
           return (ops, a, b)))
    (fun (ops, from, mid) -> builds_as_list_sort ops ~from ~mid)

(* [Builder.rotate ~from ~mid] is [from] ops, then the ops after [mid],
   then those between. *)
let prop_rotate =
  QCheck.Test.make ~name:"builder rotate = list splice" ~count:300
    (QCheck.make
       ~print:(fun (ops, a, b) -> Printf.sprintf "from %d mid %d\n%s" a b (print_ops ops))
       QCheck.Gen.(
         let* ops = list_size (int_range 0 40) edge_op_gen in
         let n = List.length ops in
         let* a = int_range 0 n in
         let* b = int_range a n in
         return (ops, a, b)))
    (fun (ops, from, mid) -> builds_as_list_sort ops ~from ~mid)

(* Three to four chunks' worth of tie-prone ops.  Either every op lies at
   one of a few instants (a handful of buckets, each spanning every chunk,
   for the merge sort), or the arrivals spread over a span and a run of
   25 to 60 ops at one instant is appended across a chunk boundary (a
   bucket of more than 24 ops split between two chunks).  The rotate's
   range always straddles a chunk boundary. *)
let prop_packed_matches_list_chunks =
  let chunk = Workload.Trace.Builder.chunk_size in
  QCheck.Test.make ~name:"packed trace = List.stable_sort, several chunks" ~count:12
    (QCheck.make
       ~print:(fun (ops, a, b) ->
         Printf.sprintf "%d ops, rotate from %d mid %d\n%s" (List.length ops) a b
           (print_ops (List.filteri (fun i _ -> i < 50) ops)))
       QCheck.Gen.(
         let* n = int_range ((3 * chunk) + 1) ((3 * chunk) + (chunk / 2)) in
         let* few_instants = bool in
         let* ops =
           if few_instants then
             let* instants = int_range 1 4 in
             list_repeat n (int_range 0 (instants - 1) >>= fun k -> op_at_gen (k * 1_000))
           else
             let* span = int_range 1_000 100_000_000
             and* boundary = int_range 1 2
             and* run = int_range 25 60
             and* at = int_range 0 100_000_000 in
             let* before = int_range 1 (run - 1) in
             let run_start = (boundary * chunk) - before in
             let* spread = list_repeat n (int_range 0 span >>= op_at_gen) in
             return
               (List.mapi
                  (fun i (op : Workload.Op.t) ->
                    if i >= run_start && i < run_start + run then { op with at = Time.of_us at }
                    else op)
                  spread)
         in
         let* boundary = int_range 1 3 in
         let* from = int_range ((boundary - 1) * chunk) ((boundary * chunk) - 1) in
         let* mid = int_range ((boundary * chunk) + 1) n in
         return (ops, from, mid)))
    (fun (ops, from, mid) -> builds_as_list_sort ops ~from ~mid)

let prop_partition =
  QCheck.Test.make ~name:"partition keeps each part's order" ~count:200 trace_arb (fun ops ->
      let trace = Workload.Trace.of_ops ops in
      let part i = Vstore.File_id.to_int (Workload.Trace.file trace i) mod 3 in
      let parts = Workload.Trace.partition trace ~parts:3 ~f:part in
      List.for_all
        (fun p ->
          ops_of_trace parts.(p)
          = List.filter
              (fun (op : Workload.Op.t) -> Vstore.File_id.to_int op.file mod 3 = p)
              (ops_of_trace trace))
        [ 0; 1; 2 ])

(* A value outside its field is refused, never wrapped into a neighbour. *)
let test_packed_fields_refused () =
  let add ?(at = 0) ?(client = 0) ?(file = 0) () =
    Workload.Trace.Builder.add (Workload.Trace.Builder.create ()) ~at:(Time.of_us at) ~client
      ~kind:Workload.Op.Read ~file:(Vstore.File_id.of_int file) ~temporary:false
  in
  let refused want f = Alcotest.check_raises want (Invalid_argument want) f in
  refused "Trace.Builder.add: negative arrival -1 us" (fun () -> add ~at:(-1) ());
  refused "Trace.Builder.add: client -1 outside [0, 1073741824)" (fun () -> add ~client:(-1) ());
  refused "Trace.Builder.add: client 1073741824 outside [0, 1073741824)" (fun () ->
      add ~client:Workload.Trace.client_limit ());
  refused "Trace.Builder.add: file 67108864 outside [0, 67108864)" (fun () ->
      add ~file:Workload.Trace.file_limit ());
  refused "Trace.Builder.add: file 1099511627776 outside [0, 67108864)" (fun () ->
      add ~file:(1 lsl 40) ());
  add ~at:max_int ~client:(Workload.Trace.client_limit - 1) ~file:(Workload.Trace.file_limit - 1) ()

(* --- the big one: leases are never stale under random fault scripts ------ *)

let fault_gen =
  QCheck.Gen.(
    let* kind = int_range 0 3 in
    let* at = float_range 1. 150. in
    let* duration = float_range 1. 60. in
    let* client = int_range 0 2 in
    return
      (match kind with
      | 0 -> Leases.Sim.Crash_client { client; at = sec at; duration = span duration }
      | 1 -> Leases.Sim.Crash_server { at = sec at; duration = span duration }
      | 2 ->
        Leases.Sim.Partition_clients { clients = [ client ]; at = sec at; duration = span duration }
      | _ ->
        Leases.Sim.Partition_clients
          { clients = [ 0; 1 ]; at = sec at; duration = span duration }))

let scenario_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* faults = list_size (int_range 0 4) fault_gen in
    let* loss = float_range 0. 0.3 in
    let* term = float_range 0. 20. in
    return (seed, faults, loss, term))

let fault_to_string = function
  | Leases.Sim.Crash_client { client; at; duration } ->
    Printf.sprintf "crash-client %d @%.2f for %.2f" client (Time.to_sec at)
      (Time.Span.to_sec duration)
  | Leases.Sim.Crash_server { at; duration } ->
    Printf.sprintf "crash-server @%.2f for %.2f" (Time.to_sec at) (Time.Span.to_sec duration)
  | Leases.Sim.Crash_shard { shard; at; duration } ->
    Printf.sprintf "crash-shard %d @%.2f for %.2f" shard (Time.to_sec at)
      (Time.Span.to_sec duration)
  | Leases.Sim.Partition_clients { clients; at; duration } ->
    Printf.sprintf "partition [%s] @%.2f for %.2f"
      (String.concat "," (List.map string_of_int clients))
      (Time.to_sec at) (Time.Span.to_sec duration)
  | Leases.Sim.Client_drift _ | Leases.Sim.Server_drift _ | Leases.Sim.Client_step _
  | Leases.Sim.Server_step _ ->
    "clock-fault"

let print_scenario (seed, faults, loss, term) =
  Printf.sprintf "seed=%d loss=%.3f term=%.4f faults=[%s]" seed loss term
    (String.concat "; " (List.map fault_to_string faults))

let scenario_arb = QCheck.make ~print:print_scenario scenario_gen

(* The lease property also draws the round trip: the 5 ms LAN default, or
   2 s (998 ms propagation), where the grant's transit allowance is about
   1 s and a client that assumed the LAN's would outlive its server's
   lease. *)
let lease_scenario_arb =
  QCheck.make
    ~print:(fun (scenario, long_rtt) ->
      Printf.sprintf "%s rtt=%s" (print_scenario scenario) (if long_rtt then "2s" else "5ms"))
    QCheck.Gen.(pair scenario_gen bool)

let prop_leases_never_stale =
  QCheck.Test.make ~name:"leases: zero stale reads under random faults" ~count:40
    lease_scenario_arb
    (fun ((seed, faults, loss, term), long_rtt) ->
      let clients = 3 in
      let trace =
        (Experiments.V_trace.shared_heavy ~seed:(Int64.of_int seed) ~clients
           ~duration:(span 200.) ())
          .Experiments.V_trace.trace
      in
      let m_prop = if long_rtt then Some (Time.Span.of_ms 998.) else None in
      let setup =
        {
          (Experiments.Runner.lease_setup ~n_clients:clients ?m_prop
             ~term:(Analytic.Model.Finite term) ())
          with
          Leases.Sim.faults;
          loss;
          seed = Int64.of_int (seed + 7);
          drain = span 400.;
        }
      in
      let m = Experiments.Runner.run_lease setup trace in
      m.Leases.Metrics.oracle_violations = 0)

let prop_writeback_clean_reads_never_stale =
  QCheck.Test.make ~name:"write-back: clean reads never stale under random faults" ~count:30
    scenario_arb
    (fun (seed, faults, loss, term) ->
      let clients = 3 in
      let term = Float.max 2. term in
      let trace =
        (Experiments.V_trace.shared_heavy ~seed:(Int64.of_int (seed + 13)) ~clients
           ~duration:(span 200.) ())
          .Experiments.V_trace.trace
      in
      let setup =
        {
          Leases.Sim.default_setup with
          Leases.Sim.n_clients = clients;
          config =
            { Leases.Config.default with term_policy = Leases.Term_policy.Fixed (span term) };
          faults;
          loss;
          seed = Int64.of_int (seed + 29);
          drain = span 400.;
        }
      in
      let outcome = Wlease.Wsim.run setup ~trace in
      outcome.Wlease.Wsim.metrics.Leases.Metrics.oracle_violations = 0)

(* --- fileset: one id range a class -------------------------------------- *)

(* Over random counts, zero temporaries and zero privates included: each
   id below [size] comes from exactly one class accessor, [class_of] maps
   it back to that class, ids from [size] up raise [Not_found], and a
   client outside the set raises [Invalid_argument]. *)
let prop_fileset_ranges =
  QCheck.Test.make ~name:"fileset: class_of inverts the id accessors" ~count:300
    QCheck.(pair (triple (int_range 1 6) (int_range 1 5) (int_range 0 4))
              (pair (int_range 0 4) (int_range 0 4)))
    (fun ((clients, installed, shared), (private_per_client, temporary_per_client)) ->
      let module F = Workload.Fileset in
      let fs = F.create ~clients ~installed ~shared ~private_per_client ~temporary_per_client in
      let size = F.size fs in
      let hits = Array.make size 0 and ok = ref true in
      let visit cls n id =
        for i = 0 to n - 1 do
          let file = id i in
          let j = Vstore.File_id.to_int file in
          if j >= size then ok := false
          else begin
            hits.(j) <- hits.(j) + 1;
            if F.class_of fs file <> cls then ok := false
          end
        done
      in
      visit F.Installed installed (F.installed_id fs);
      visit F.Shared shared (F.shared_id fs);
      for client = 0 to clients - 1 do
        visit (F.Private client) private_per_client (F.private_id fs ~client);
        visit (F.Temporary client) temporary_per_client (F.temporary_id fs ~client)
      done;
      let unknown id =
        match F.class_of fs (Vstore.File_id.of_int id) with
        | _ -> false
        | exception Not_found -> true
      in
      let bad_client f =
        match f () with
        | _ -> false
        | exception Invalid_argument msg -> String.equal msg "Fileset: client index out of range"
      in
      !ok
      && Array.for_all (fun n -> n = 1) hits
      && List.for_all unknown [ size; size + 1; size + 1_000 ]
      && bad_client (fun () -> F.private_id fs ~client:clients 0)
      && bad_client (fun () -> F.temporary_id fs ~client:(-1) 0))

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "event-queue",
        List.map to_alcotest
          [ prop_event_queue_sorted; prop_event_queue_cancel; prop_event_queue_interleaved ] );
      ("engine", List.map to_alcotest [ prop_engine_lanes_match_one_heap ]);
      ("lease", List.map to_alcotest [ prop_client_never_outlives_server ]);
      ("lease-table", List.map to_alcotest [ prop_lease_table_model; prop_lease_table_wide ]);
      ("int-table", List.map to_alcotest [ prop_int_tbl_model ]);
      ("breakdown", List.map to_alcotest [ prop_breakdown_model ]);
      ( "store",
        List.map to_alcotest
          [ prop_store_current_at_implies_was_current; prop_store_stale_version_rejected ] );
      ("clock", List.map to_alcotest [ prop_clock_inverse ]);
      ("namespace", List.map to_alcotest [ prop_namespace_model ]);
      ("fileset", List.map to_alcotest [ prop_fileset_ranges ]);
      ( "analytic",
        List.map to_alcotest
          [ prop_load_monotone_s1; prop_break_even_correct; prop_relative_load_at_zero_is_one ] );
      ( "trace",
        List.map to_alcotest
          [
            prop_trace_roundtrip;
            prop_packed_matches_list;
            prop_packed_matches_list_chunks;
            prop_rotate;
            prop_partition;
          ]
        @ [ Alcotest.test_case "out-of-range fields refused" `Quick test_packed_fields_refused ] );
      ( "protocol-safety",
        List.map to_alcotest [ prop_leases_never_stale; prop_writeback_clean_reads_never_stale ] );
    ]
