module Splitmix = Prng.Splitmix
module Sim = Leases.Sim

let unsafe_skew_budget_s = 0.04
(* Well under the 100 ms skew allowance the client subtracts from every
   lease, so a schedule staying inside the budget must run clean however
   its unsafe-direction faults compose. *)

let sec = Simtime.Time.of_sec
let span = Simtime.Time.Span.of_sec
let range rng lo hi = lo +. (Splitmix.float rng *. (hi -. lo))

(* A drift window: set the rate at [at], restore it at [at +. dur].  The
   pair keeps total divergence bounded for unsafe directions, and for safe
   directions it exercises the restore transition — the rate change the
   seed implementation's once-at-arming timers never tracked. *)
let drift_window ~server ~client ~at ~dur ~drift =
  if server then
    (* shard 0 keeps generated streams byte-identical to pre-shard-index
       seeds; sharded schedules crash shards instead of drifting them *)
    [
      Sim.Server_drift { shard = 0; at = sec at; drift };
      Sim.Server_drift { shard = 0; at = sec (at +. dur); drift = 0. };
    ]
  else
    [
      Sim.Client_drift { client; at = sec at; drift };
      Sim.Client_drift { client; at = sec (at +. dur); drift = 0. };
    ]

let gen_fault rng ~n_clients ~duration ~budget =
  let at = range rng 2. (duration -. 5.) in
  match Splitmix.int rng ~bound:8 with
  | 0 ->
    let client = Splitmix.int rng ~bound:n_clients in
    [ Sim.Crash_client { client; at = sec at; duration = span (range rng 2. 25.) } ]
  | 1 -> [ Sim.Crash_server { at = sec at; duration = span (range rng 2. 10.) } ]
  | 2 ->
    let members =
      List.filter (fun _ -> Splitmix.bool rng ~p:0.5) (List.init n_clients Fun.id)
    in
    let members = if members = [] then [ Splitmix.int rng ~bound:n_clients ] else members in
    [ Sim.Partition_clients { clients = members; at = sec at; duration = span (range rng 5. 30.) } ]
  | 3 ->
    (* Client drift: fast is safe at any amplitude; slow stretches the
       lease in the client's eyes, so it spends the unsafe budget. *)
    let client = Splitmix.int rng ~bound:n_clients in
    if Splitmix.bool rng ~p:0.6 then
      drift_window ~server:false ~client ~at ~dur:(range rng 5. 20.) ~drift:(range rng 0.1 1.0)
    else begin
      let dur = range rng 0.5 3. in
      let amp = Float.min 0.5 (!budget /. dur) in
      if amp < 0.001 then []
      else begin
        budget := !budget -. (amp *. dur);
        drift_window ~server:false ~client ~at ~dur ~drift:(-.amp)
      end
    end
  | 4 ->
    (* Server drift: slow is safe at any amplitude (and is the polarity
       that tripped the timer bug); fast spends the unsafe budget. *)
    if Splitmix.bool rng ~p:0.6 then
      drift_window ~server:true ~client:0 ~at ~dur:(range rng 5. 20.)
        ~drift:(-.range rng 0.1 0.8)
    else begin
      let dur = range rng 0.5 3. in
      let amp = Float.min 0.5 (!budget /. dur) in
      if amp < 0.001 then []
      else begin
        budget := !budget -. (amp *. dur);
        drift_window ~server:true ~client:0 ~at ~dur ~drift:amp
      end
    end
  | 5 ->
    (* Client step: forward expires leases early (safe); backward
       stretches them (unsafe, budgeted). *)
    let client = Splitmix.int rng ~bound:n_clients in
    if Splitmix.bool rng ~p:0.6 then
      [ Sim.Client_step { client; at = sec at; step = span (range rng 1. 10.) } ]
    else begin
      let amp = Float.min !budget (range rng 0.005 unsafe_skew_budget_s) in
      if amp < 0.001 then []
      else begin
        budget := !budget -. amp;
        [ Sim.Client_step { client; at = sec at; step = span (-.amp) } ]
      end
    end
  | 6 ->
    (* Server step: backward delays expiry on the server's clock (safe);
       forward expires leases early there (unsafe, budgeted). *)
    if Splitmix.bool rng ~p:0.6 then
      [ Sim.Server_step { shard = 0; at = sec at; step = span (-.range rng 1. 10.) } ]
    else begin
      let amp = Float.min !budget (range rng 0.005 unsafe_skew_budget_s) in
      if amp < 0.001 then []
      else begin
        budget := !budget -. amp;
        [ Sim.Server_step { shard = 0; at = sec at; step = span amp } ]
      end
    end
  | _ ->
    (* Composed outage-plus-slide: cut a leaseholder off, then slow the
       server's clock shortly after, while writes to its files are parked
       on the expiry timer.  Entirely in the safe drift direction, so a
       clock-faithful timer must ride it out clean — but it is exactly the
       overlap where a timer frozen at its arming-time rate commits while
       the severed holder's lease is still running. *)
    let client = Splitmix.int rng ~bound:n_clients in
    let outage = range rng 10. 25. in
    let slide_after = range rng 0.5 6. in
    let cut =
      if Splitmix.bool rng ~p:0.5 then
        Sim.Partition_clients { clients = [ client ]; at = sec at; duration = span outage }
      else Sim.Crash_client { client; at = sec at; duration = span outage }
    in
    cut
    :: drift_window ~server:true ~client:0 ~at:(at +. slide_after)
         ~dur:(range rng 8. 20.) ~drift:(-.range rng 0.3 0.9)

let gen_schedule rng ~index =
  let n_clients = 2 + Splitmix.int rng ~bound:4 in
  let workload =
    let u = Splitmix.float rng in
    if u < 0.5 then Experiments.V_trace.Shared_heavy
    else if u < 0.8 then Experiments.V_trace.Poisson
    else Experiments.V_trace.Bursty
  in
  let duration_s = Float.of_int (40 + Splitmix.int rng ~bound:41) in
  let term_s = List.nth [ 5.; 10.; 15. ] (Splitmix.int rng ~bound:3) in
  let loss = if Splitmix.bool rng ~p:0.35 then range rng 0.02 0.2 else 0. in
  let sim_seed = Splitmix.next_int64 rng in
  let n_faults = 1 + Splitmix.int rng ~bound:4 in
  let budget = ref unsafe_skew_budget_s in
  let faults =
    (* Explicit recursion: the draws must happen in a defined order. *)
    let rec go i acc =
      if i = n_faults then List.concat (List.rev acc)
      else go (i + 1) (gen_fault rng ~n_clients ~duration:duration_s ~budget :: acc)
    in
    go 0 []
  in
  (* Sharding draws come last so every field above is byte-identical to
     what the same seed generated before sharded schedules existed —
     extending the fault vocabulary must not reshuffle old campaigns. *)
  let n_shards, faults =
    if Splitmix.bool rng ~p:0.25 then begin
      let n_shards = if Splitmix.bool rng ~p:0.5 then 2 else 4 in
      let shard = Splitmix.int rng ~bound:n_shards in
      let at = range rng 5. (duration_s -. 5.) in
      let failover =
        Sim.Crash_shard { shard; at = sec at; duration = span (range rng 2. 10.) }
      in
      (n_shards, faults @ [ failover ])
    end
    else (1, faults)
  in
  { Schedule.index; sim_seed; workload; n_clients; n_shards; duration_s; term_s; loss; faults }

let schedules ~seed ~n =
  if n < 0 then invalid_arg (Printf.sprintf "Gen.schedules: n = %d is negative" n);
  let root = Splitmix.create ~seed:(Int64.of_int seed) in
  let rec go i acc =
    if i = n then List.rev acc
    else go (i + 1) (gen_schedule (Splitmix.split root) ~index:i :: acc)
  in
  go 0 []
