module Sim = Leases.Sim
module Time = Simtime.Time

let round_instant at =
  let s = Time.to_sec at in
  let rounded = Float.of_int (int_of_float s) in
  if rounded = s then None else Some (Time.of_sec rounded)

let halve_span span =
  let s = Time.Span.to_sec span in
  if Float.abs s <= 1. then None else Some (Time.Span.of_sec (s /. 2.))

(* Candidate simplifications of one fault, most aggressive first.  [None]
   entries (no change possible) are filtered out. *)
let fault_candidates fault =
  let round at rebuild = Option.map rebuild (round_instant at) in
  let halve span rebuild = Option.map rebuild (halve_span span) in
  List.filter_map Fun.id
    (match fault with
    | Sim.Crash_client { client; at; duration } ->
      [
        round at (fun at -> Sim.Crash_client { client; at; duration });
        halve duration (fun duration -> Sim.Crash_client { client; at; duration });
      ]
    | Sim.Crash_server { at; duration } ->
      [
        round at (fun at -> Sim.Crash_server { at; duration });
        halve duration (fun duration -> Sim.Crash_server { at; duration });
      ]
    | Sim.Crash_shard { shard; at; duration } ->
      [
        (* A sharded crash that reproduces as a plain server crash is the
           simpler repro only when one server exists; keep the shard. *)
        round at (fun at -> Sim.Crash_shard { shard; at; duration });
        halve duration (fun duration -> Sim.Crash_shard { shard; at; duration });
      ]
    | Sim.Partition_clients { clients; at; duration } ->
      (match clients with
      | _ :: (_ :: _ as rest) ->
        [ Some (Sim.Partition_clients { clients = rest; at; duration }) ]
      | _ -> [])
      @ [
          round at (fun at -> Sim.Partition_clients { clients; at; duration });
          halve duration (fun duration -> Sim.Partition_clients { clients; at; duration });
        ]
    | Sim.Client_drift { client; at; drift } ->
      [
        round at (fun at -> Sim.Client_drift { client; at; drift });
        (if Float.abs drift > 0.1 then Some (Sim.Client_drift { client; at; drift = drift /. 2. })
         else None);
      ]
    | Sim.Server_drift { shard; at; drift } ->
      [
        round at (fun at -> Sim.Server_drift { shard; at; drift });
        (if Float.abs drift > 0.1 then
           Some (Sim.Server_drift { shard; at; drift = drift /. 2. })
         else None);
      ]
    | Sim.Client_step { client; at; step } ->
      [
        round at (fun at -> Sim.Client_step { client; at; step });
        halve step (fun step -> Sim.Client_step { client; at; step });
      ]
    | Sim.Server_step { shard; at; step } ->
      [
        round at (fun at -> Sim.Server_step { shard; at; step });
        halve step (fun step -> Sim.Server_step { shard; at; step });
      ])

let replace_nth xs n x = List.mapi (fun i y -> if i = n then x else y) xs

let remove_nth xs n = List.filteri (fun i _ -> i <> n) xs

(* The re-executions one minimisation may spend. *)
let max_runs = 150

let minimize ~still_fails schedule =
  let runs = ref 0 in
  let fails s =
    if !runs >= max_runs then false
    else begin
      incr runs;
      still_fails s
    end
  in
  let current = ref schedule in
  (* Phase 1: drop whole faults while the violation persists; restart the
     scan after each successful removal so later faults are retried in the
     smaller context. *)
  let rec drop_pass i =
    let faults = !current.Schedule.faults in
    if i < List.length faults then begin
      let candidate = { !current with Schedule.faults = remove_nth faults i } in
      if candidate.Schedule.faults <> [] && fails candidate then begin
        current := candidate;
        drop_pass 0
      end
      else drop_pass (i + 1)
    end
  in
  drop_pass 0;
  (* Phase 2: message loss is noise once the fault list is minimal. *)
  if !current.Schedule.loss > 0. then begin
    let candidate = { !current with Schedule.loss = 0. } in
    if fails candidate then current := candidate
  end;
  (* Phase 3: simplify each surviving fault in place until fixpoint. *)
  let rec simplify_pass () =
    let faults = !current.Schedule.faults in
    let improved = ref false in
    List.iteri
      (fun i fault ->
        List.iter
          (fun replacement ->
            if not !improved then begin
              let candidate =
                { !current with Schedule.faults = replace_nth !current.Schedule.faults i replacement }
              in
              if fails candidate then begin
                current := candidate;
                improved := true
              end
            end)
          (fault_candidates fault))
      faults;
    if !improved && !runs < max_runs then simplify_pass ()
  in
  simplify_pass ();
  (!current, !runs)
