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

(* --- lease table: reaping layout == naive live-filtered model ---------- *)

(* The reworked [Lease_table] reaps expired records for good — lazily on
   access and in bulk from sweeps — instead of filtering an append-only
   table at every query.  Reaping must be semantically invisible: every
   live-filtered aggregate has to agree with a naive model, under arbitrary
   interleavings of record / re-record / remove / drop-file / sweep and a
   monotone query clock.  The model drops a record once it expires, and the
   table's [on_reap] callbacks must report exactly those records, each
   file's in ascending (expiry, holder) order: every file is queried after
   every step, so each expiry is reaped in the step it happens.  Up to 41
   holders per file, with records the common operation, grow shared slots
   past their initial 8 buckets so that holder tables resize mid-script.  A
   narrow script uses only 3 holders, so the same records are re-recorded
   over and over: a shared slot's expiry heap fills with stale entries
   until it is rebuilt from the holder table.  Re-records also move a
   resident expiry earlier, turn it into [Never] and back, which leaves
   stale heap entries both before and after the current one.  (Backwards
   server steps, where the reaping table {e deliberately} diverges by
   staying forgetful, are exercised by the fault campaign and documented in
   the interface.) *)
let lease_table_script =
  let open QCheck.Gen in
  (* 0 record, 1 re-record a resident holder, 2 remove, 3 drop-file,
     4 sweep, 5 advance the clock *)
  let op =
    frequency
      [ (16, return 0); (3, return 1); (2, return 2); (1, return 3); (1, return 4); (2, return 5) ]
  in
  QCheck.make
    ~print:QCheck.Print.(pair bool (list (quad int int int int)))
    ~shrink:QCheck.Shrink.(pair bool list)
    (pair bool (list_size (int_range 100 400) (quad op (int_bound 3) (int_bound 40) (int_bound 60))))

let prop_lease_table_model =
  QCheck.Test.make ~name:"lease table: reaping invisible to live queries" ~count:300
    lease_table_script
    (fun (narrow, script) ->
      let open Leases in
      let t = Lease_table.create () in
      (* model: ((file, holder), expiry) assoc list, one entry per resident pair *)
      let model = ref [] in
      (* this step's [on_reap] calls, latest first *)
      let reaped = ref [] in
      Lease_table.set_on_reap t (fun f h e ->
          reaped := ((Vstore.File_id.to_int f, Host.Host_id.to_int h), e) :: !reaped);
      let now = ref (sec 0.) in
      let ok = ref true in
      let file i = Vstore.File_id.of_int i in
      let host i = Host.Host_id.of_int i in
      let us = function Lease.At at -> Time.to_us at | Lease.Never -> max_int in
      let model_live f =
        List.filter_map
          (fun ((f', h), e) ->
            if f' = f && not (Lease.expired e ~now:!now) then Some (h, e) else None)
          !model
      in
      let check_file f =
        let live = model_live f in
        let holders = List.sort compare (List.map fst live) in
        if Lease_table.live_count t (file f) ~now:!now <> List.length holders then ok := false;
        if List.map Host.Host_id.to_int (Lease_table.live_holders t (file f) ~now:!now) <> holders
        then ok := false;
        let deadline =
          List.fold_left (fun acc (_, e) -> Lease.expiry_max acc e) (Lease.At !now) live
        in
        if Lease_table.live_deadline t (file f) ~now:!now ~init:(Lease.At !now) <> deadline then
          ok := false
      in
      let check_occupancy () =
        let live_by_file = List.map (fun f -> List.length (model_live f)) [ 0; 1; 2; 3 ] in
        let { Lease_table.files; records; live_records } = Lease_table.occupancy t ~now:!now in
        if files <> List.length (List.filter (fun n -> n > 0) live_by_file) then ok := false;
        if records <> List.fold_left ( + ) 0 live_by_file then ok := false;
        if live_records <> records then ok := false
      in
      let record f h e =
        Lease_table.record t (file f) (host h) e;
        model := ((f, h), e) :: List.remove_assoc (f, h) !model
      in
      let rec ascending = function
        | a :: (b :: _ as rest) -> compare a b < 0 && ascending rest
        | [ _ ] | [] -> true
      in
      let step (op, f, h, x) =
        let h = if narrow then h mod 3 else h in
        (match op with
        | 0 ->
          (* occasionally Never; an offset of 0 records an already-expired lease *)
          let e =
            if x mod 7 = 0 then Lease.Never else Lease.At (Time.add !now (span (float_of_int x)))
          in
          record f h e
        | 1 -> (
          (* re-record a resident holder: a finite expiry moves earlier
             (possibly into the past) or becomes Never; Never becomes finite *)
          match List.sort compare (model_live f) with
          | [] -> ()
          | live ->
            let h, e = List.nth live (h mod List.length live) in
            let e =
              match e with
              | Lease.At _ when x mod 3 = 0 -> Lease.Never
              | Lease.At at ->
                Lease.At (Time.of_us (Int.max 0 (Time.to_us at - ((x + 1) * 100_000))))
              | Lease.Never -> Lease.At (Time.add !now (span (float_of_int x /. 10.)))
            in
            record f h e)
        | 2 ->
          Lease_table.remove_holder t (file f) (host h);
          model := List.remove_assoc (f, h) !model
        | 3 ->
          Lease_table.drop_file t (file f);
          model := List.filter (fun ((f', _), _) -> f' <> f) !model
        | 4 -> ignore (Lease_table.sweep t ~now:!now)
        | _ ->
          (* advance the server clock (monotone) *)
          now := Time.add !now (span (float_of_int x /. 10.)));
        List.iter check_file [ 0; 1; 2; 3 ];
        (* [occupancy] sweeps as a side effect; checking it after every op
           would keep the table freshly swept and starve the lazy
           reap-on-access path, so only audit it where a sweep happened *)
        if op = 4 then check_occupancy ();
        let expired, kept = List.partition (fun (_, e) -> Lease.expired e ~now:!now) !model in
        model := kept;
        if List.sort compare !reaped <> List.sort compare expired then ok := false;
        let calls = List.rev !reaped in
        List.iter
          (fun f ->
            let keys =
              List.filter_map (fun ((f', h), e) -> if f' = f then Some (us e, h) else None) calls
            in
            if not (ascending keys) then ok := false)
          [ 0; 1; 2; 3 ];
        reaped := []
      in
      List.iter step script;
      check_occupancy ();
      !ok)

(* --- the lease safety inequality --------------------------------------- *)

let prop_client_never_outlives_server =
  QCheck.Test.make ~name:"client deadline <= server deadline" ~count:500
    QCheck.(triple (float_bound_inclusive 100.) (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (term_s, transit_s, skew_s) ->
      let grant = { Leases.Lease.term = Leases.Lease.term_of_sec term_s } in
      let granted_at = sec 50. in
      (* the client receives the grant no earlier than it was made *)
      let received_at = Time.add granted_at (span transit_s) in
      let server = Leases.Lease.server_expiry grant ~granted_at in
      let client =
        Leases.Lease.client_expiry grant ~received_at ~transit_allowance:(span transit_s)
          ~skew_allowance:(span skew_s)
      in
      match server, client with
      | Leases.Lease.At s, Leases.Lease.At c ->
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

let scenario_arb =
  QCheck.make
    ~print:(fun (seed, faults, loss, term) ->
      Printf.sprintf "seed=%d loss=%.3f term=%.4f faults=[%s]" seed loss term
        (String.concat "; " (List.map fault_to_string faults)))
    scenario_gen

let prop_leases_never_stale =
  QCheck.Test.make ~name:"leases: zero stale reads under random faults" ~count:40 scenario_arb
    (fun (seed, faults, loss, term) ->
      let clients = 3 in
      let trace =
        (Experiments.V_trace.shared_heavy ~seed:(Int64.of_int seed) ~clients
           ~duration:(span 200.) ())
          .Experiments.V_trace.trace
      in
      let setup =
        {
          (Experiments.Runner.lease_setup ~n_clients:clients ~term:(Analytic.Model.Finite term) ())
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
          Wlease.Wsim.default_setup with
          Wlease.Wsim.n_clients = clients;
          term = span term;
          faults;
          loss;
          seed = Int64.of_int (seed + 29);
          drain = span 400.;
        }
      in
      let outcome = Wlease.Wsim.run setup ~trace in
      outcome.Wlease.Wsim.metrics.Leases.Metrics.oracle_violations = 0)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "event-queue",
        List.map to_alcotest
          [ prop_event_queue_sorted; prop_event_queue_cancel; prop_event_queue_interleaved ] );
      ("lease", List.map to_alcotest [ prop_client_never_outlives_server ]);
      ("lease-table", List.map to_alcotest [ prop_lease_table_model ]);
      ( "store",
        List.map to_alcotest
          [ prop_store_current_at_implies_was_current; prop_store_stale_version_rejected ] );
      ("clock", List.map to_alcotest [ prop_clock_inverse ]);
      ("namespace", List.map to_alcotest [ prop_namespace_model ]);
      ( "analytic",
        List.map to_alcotest
          [ prop_load_monotone_s1; prop_break_even_correct; prop_relative_load_at_zero_is_one ] );
      ("trace", List.map to_alcotest [ prop_trace_roundtrip ]);
      ( "protocol-safety",
        List.map to_alcotest [ prop_leases_never_stale; prop_writeback_clean_reads_never_stale ] );
    ]
