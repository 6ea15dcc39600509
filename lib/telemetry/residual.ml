type params = {
  n_clients : int;
  m_prop_s : float;
  m_proc_s : float;
  epsilon_s : float;
  term : Analytic.Model.term;
}

let tolerance = 0.5
let warmup_s = 300.

let params_of_config ~n_clients ~m_prop ~m_proc (config : Leases.Config.t) =
  if n_clients < 1 then
    invalid_arg "Telemetry.Residual.params_of_config: n_clients must be positive";
  let sec = Simtime.Time.Span.to_sec in
  let term =
    match config.Leases.Config.term_policy with
    | Leases.Term_policy.Zero -> Analytic.Model.Finite 0.
    | Leases.Term_policy.Fixed span -> Analytic.Model.Finite (sec span)
    | Leases.Term_policy.Infinite -> Analytic.Model.Infinite
    | Leases.Term_policy.Adaptive a -> Analytic.Model.Finite (sec a.Leases.Term_policy.max_term)
  in
  {
    n_clients;
    m_prop_s = sec m_prop;
    m_proc_s = sec m_proc;
    epsilon_s = sec config.Leases.Config.skew_allowance;
    term;
  }

type eval = {
  e_window : Sampler.window;
  r_rate : float;
  w_rate : float;
  sharing : int;
  measured_load : float;
  predicted_load : float;
  load_residual : float;
  measured_delay : float;
  predicted_delay : float;
  delay_residual : float;
  flagged : bool;
}

let unicast_rtt p = (2. *. p.m_prop_s) +. (4. *. p.m_proc_s)

(* The §3.1 model takes per-client rates; per window we measure them from
   the window's own reads and commits (see [Sampler] for when a read
   counts), so the prediction tracks load swings (fault windows, warm-up)
   instead of assuming the configured workload rates. *)
let analytic_params p ~r_rate ~w_rate ~sharing =
  {
    Analytic.Params.n_clients = p.n_clients;
    read_rate = r_rate;
    write_rate = w_rate;
    sharing;
    m_prop = p.m_prop_s;
    m_proc = p.m_proc_s;
    epsilon = p.epsilon_s;
  }

let evaluate_window p (w : Sampler.window) =
  let dur = Sampler.duration_s w in
  let dur = if dur <= 0. then 1. else dur in
  let n = float_of_int p.n_clients in
  let r_rate = float_of_int w.Sampler.reads /. n /. dur in
  let w_rate = float_of_int w.Sampler.commits /. n /. dur in
  (* S is unobservable directly; recover it from the measured approval
     traffic: a write to a file shared by S caches costs S approval-category
     messages at the server.  No commits (or no approvals) → S = 1. *)
  let sharing =
    if w.Sampler.commits <= 0 || w.Sampler.approval_msgs <= 0 then 1
    else
      Int.max 1
        (int_of_float
           (Float.round (float_of_int w.Sampler.approval_msgs /. float_of_int w.Sampler.commits)))
  in
  let ap = analytic_params p ~r_rate ~w_rate ~sharing in
  let predicted_load = Analytic.Model.consistency_load ap p.term in
  let measured_load = float_of_int (Sampler.consistency_msgs w) /. dur in
  (* Residual floor: one message per window.  Both sides below the floor
     (an idle window) reads as agreement, not a division blow-up. *)
  let load_floor = 1. /. dur in
  let load_residual = (measured_load -. predicted_load) /. Float.max predicted_load load_floor in
  let rtt = unicast_rtt p in
  let reads = w.Sampler.read_delay_count and writes = w.Sampler.write_delay_count in
  let measured_delay =
    if reads + writes = 0 then 0.
    else begin
      (* The model's delay counts only consistency-induced waiting: a read
         costs an RPC only on a lease miss (already what the read latency
         records, since hits are instant), while every write pays one
         unavoidable RPC before any approval wait — subtract it. *)
      let write_added =
        if writes = 0 then 0.
        else Float.max 0. ((w.Sampler.write_delay_sum /. float_of_int writes) -. rtt)
      in
      (w.Sampler.read_delay_sum +. (write_added *. float_of_int writes))
      /. float_of_int (reads + writes)
    end
  in
  let predicted_delay = Analytic.Model.consistency_delay ap p.term in
  let delay_floor = 1e-4 in
  let delay_residual =
    (measured_delay -. predicted_delay) /. Float.max predicted_delay delay_floor
  in
  {
    e_window = w;
    r_rate;
    w_rate;
    sharing;
    measured_load;
    predicted_load;
    load_residual;
    measured_delay;
    predicted_delay;
    delay_residual;
    flagged = Float.abs load_residual > tolerance;
  }

let evaluate ?server p sampler = List.map (evaluate_window p) (Sampler.windows ?server sampler)

type summary = {
  windows : int;
  flagged_windows : int;
  mean_measured_load : float;
  mean_predicted_load : float;
  peak_measured_load : float;
  worst_load_residual : float;  (** signed; largest magnitude *)
  worst_window_t : float;  (** [t_end] of that window; 0 when no windows *)
  steady_load_residual : float;
}

(* Steady-state pooled residual: total measured vs total predicted
   consistency messages over the read-active windows past the warm-up
   cutoff.  The cold cache front-loads first-access misses — every read
   RPC counts as extension traffic but the steady-state model amortises
   none of them — so early windows sit far above the prediction and decay
   over minutes as the Zipf tail gets touched.  Pooling kills the
   per-window Poisson noise that makes single-window residuals swing tens
   of percent.  When the warm-up swallows every active window the most
   recent windows are used anyway: a too-short run reports its best
   estimate rather than 0/0. *)
let steady_residual evals =
  let active = List.filter (fun e -> e.e_window.Sampler.reads > 0) evals in
  let warm = List.filter (fun e -> e.e_window.Sampler.t_end > warmup_s) active in
  let active =
    if warm <> [] then warm
    else match active with _ :: rest when rest <> [] -> rest | other -> other
  in
  let measured, predicted =
    List.fold_left
      (fun (m, pr) e ->
        let dur = Sampler.duration_s e.e_window in
        (m +. (e.measured_load *. dur), pr +. (e.predicted_load *. dur)))
      (0., 0.) active
  in
  if predicted <= 0. then if measured <= 0. then 0. else Float.infinity
  else (measured -. predicted) /. predicted

let summarize evals =
  let n = List.length evals in
  if n = 0 then
    {
      windows = 0;
      flagged_windows = 0;
      mean_measured_load = 0.;
      mean_predicted_load = 0.;
      peak_measured_load = 0.;
      worst_load_residual = 0.;
      worst_window_t = 0.;
      steady_load_residual = 0.;
    }
  else begin
    let flagged = List.length (List.filter (fun e -> e.flagged) evals) in
    let total f = List.fold_left (fun acc e -> acc +. f e) 0. evals in
    let peak = List.fold_left (fun acc e -> Float.max acc e.measured_load) 0. evals in
    let worst =
      List.fold_left
        (fun acc e ->
          if Float.abs e.load_residual > Float.abs acc.load_residual then e else acc)
        (List.hd evals) evals
    in
    {
      windows = n;
      flagged_windows = flagged;
      mean_measured_load = total (fun e -> e.measured_load) /. float_of_int n;
      mean_predicted_load = total (fun e -> e.predicted_load) /. float_of_int n;
      peak_measured_load = peak;
      worst_load_residual = worst.load_residual;
      worst_window_t = worst.e_window.Sampler.t_end;
      steady_load_residual = steady_residual evals;
    }
  end

let summaries p sampler =
  Array.init (Sampler.servers sampler) (fun server -> summarize (evaluate ~server p sampler))
