open Simtime

type installed = {
  files : Vstore.File_id.t list;
  period : Time.Span.t;
  term : Time.Span.t;
}

type t = {
  term_policy : Term_policy.t;
  skew_allowance : Time.Span.t;
  batch_extensions : bool;
  anticipatory_renewal : Time.Span.t option;
  callback_on_write : bool;
  approval_multicast : bool;
  installed : installed option;
  wal_mode : Vstore.Wal.mode;
  term_compensation : (Host.Host_id.t -> Simtime.Time.Span.t) option;
  lease_sweep_interval : Time.Span.t option;
  cache_eviction_grace : Time.Span.t option;
}

let default =
  {
    term_policy = Term_policy.Fixed (Time.Span.of_sec 10.);
    skew_allowance = Time.Span.of_ms 100.;
    batch_extensions = true;
    anticipatory_renewal = None;
    callback_on_write = true;
    approval_multicast = true;
    installed = None;
    wal_mode = Vstore.Wal.Max_term_only;
    term_compensation = None;
    lease_sweep_interval = Some (Time.Span.of_sec 10.);
    cache_eviction_grace = Some (Time.Span.of_sec 600.);
  }

let with_term t term =
  let term_policy =
    match term with
    | Lease.Infinite -> Term_policy.Infinite
    | Lease.Finite span ->
      if Time.Span.equal span Time.Span.zero then Term_policy.Zero else Term_policy.Fixed span
  in
  { t with term_policy }

let validate t =
  if Time.Span.is_negative t.skew_allowance then invalid_arg "Config: negative skew allowance";
  (match t.term_policy with
  | Term_policy.Fixed span when Time.Span.is_negative span -> invalid_arg "Config: negative term"
  | Term_policy.Adaptive a ->
    if Time.Span.(a.max_term < a.min_term) then invalid_arg "Config: adaptive max < min";
    if a.break_even_multiple <= 0. then invalid_arg "Config: non-positive break-even multiple"
  | Term_policy.Fixed _ | Term_policy.Zero | Term_policy.Infinite -> ());
  (match t.installed with
  | Some { files; period; term } ->
    if files = [] then invalid_arg "Config: installed optimisation with no files";
    if Time.Span.(period <= Time.Span.zero) then invalid_arg "Config: installed period must be positive";
    if Time.Span.(term <= period) then
      invalid_arg "Config: installed term must exceed the refresh period"
  | None -> ());
  (match t.anticipatory_renewal with
  | Some lead when Time.Span.is_negative lead -> invalid_arg "Config: negative renewal lead"
  | Some _ | None -> ());
  (match t.lease_sweep_interval with
  | Some interval when Time.Span.(interval <= Time.Span.zero) ->
    invalid_arg "Config: lease sweep interval must be positive"
  | Some _ | None -> ());
  match t.cache_eviction_grace with
  | Some grace when Time.Span.is_negative grace ->
    invalid_arg "Config: negative cache eviction grace"
  | Some _ | None -> ()
