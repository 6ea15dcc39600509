open Simtime

type adaptive = {
  min_term : Time.Span.t;
  max_term : Time.Span.t;
  break_even_multiple : float;
  rate_halflife : Time.Span.t;
}

type t = Zero | Fixed of Time.Span.t | Infinite | Adaptive of adaptive

let default_adaptive =
  {
    min_term = Time.Span.zero;
    max_term = Time.Span.of_sec 60.;
    break_even_multiple = 10.;
    rate_halflife = Time.Span.of_sec 30.;
  }

let pp ppf = function
  | Zero -> Format.pp_print_string ppf "zero"
  | Fixed span -> Format.fprintf ppf "fixed %a" Time.Span.pp span
  | Infinite -> Format.pp_print_string ppf "infinite"
  | Adaptive a ->
    Format.fprintf ppf "adaptive [%a, %a] x%.1f" Time.Span.pp a.min_term Time.Span.pp a.max_term
      a.break_even_multiple

module Tracker = struct
  (* Exponentially-weighted event rates: each event adds 1 to a mass that
     decays with the configured half-life; the rate estimate is
     mass * ln 2 / half-life (the stationary value for a constant-rate
     stream). *)
  type file_stats = {
    mutable read_mass : float;
    mutable write_mass : float;
    mutable last_update : Time.t;
  }

  type t = { config : adaptive; files : file_stats Vstore.File_id.Tbl.t }

  let create config = { config; files = Vstore.File_id.Tbl.create 64 }

  let stats t file =
    match Vstore.File_id.Tbl.find_opt t.files file with
    | Some s -> s
    | None ->
      let s = { read_mass = 0.; write_mass = 0.; last_update = Time.zero } in
      Vstore.File_id.Tbl.add t.files file s;
      s

  let decay t (s : file_stats) ~now =
    let halflife = Time.Span.to_sec t.config.rate_halflife in
    let elapsed = Time.Span.to_sec (Time.diff now s.last_update) in
    if elapsed > 0. && halflife > 0. then begin
      let factor = Float.pow 0.5 (elapsed /. halflife) in
      s.read_mass <- s.read_mass *. factor;
      s.write_mass <- s.write_mass *. factor
    end;
    s.last_update <- now

  let note_read t file ~now =
    let s = stats t file in
    decay t s ~now;
    s.read_mass <- s.read_mass +. 1.

  let note_write t file ~now =
    let s = stats t file in
    decay t s ~now;
    s.write_mass <- s.write_mass +. 1.

  let mass_to_rate t mass =
    let halflife = Time.Span.to_sec t.config.rate_halflife in
    if halflife <= 0. then 0. else mass *. log 2. /. halflife

  let read_rate t file ~now =
    let s = stats t file in
    decay t s ~now;
    mass_to_rate t s.read_mass

  let write_rate t file ~now =
    let s = stats t file in
    decay t s ~now;
    mass_to_rate t s.write_mass

  let term_for t file ~now ~holders =
    let r = read_rate t file ~now in
    let w = write_rate t file ~now in
    let s = float_of_int (Int.max 1 holders) in
    if r <= 0. then Lease.Finite t.config.min_term
    else if w <= 0. then Lease.Finite t.config.max_term
    else begin
      let alpha = 2. *. r /. (s *. w) in
      if alpha <= 1. then Lease.term_zero
      else begin
        let break_even = 1. /. (r *. (alpha -. 1.)) in
        (* The paper's extreme case, applied gradually: a lease should not
           outlive the expected gap to the file's next write, or it only
           manufactures false sharing.  Cap at a quarter of the mean
           write interarrival. *)
        let write_cap = 0.25 /. w in
        let chosen =
          Time.Span.of_sec (Float.min (t.config.break_even_multiple *. break_even) write_cap)
        in
        Lease.Finite (Time.Span.min t.config.max_term (Time.Span.max t.config.min_term chosen))
      end
    end
end

let term_for policy ~tracker ~file ~now ~holders =
  match policy with
  | Zero -> Lease.term_zero
  | Fixed span -> Lease.Finite span
  | Infinite -> Lease.Infinite
  | Adaptive _ -> (
    match tracker with
    | Some tracker -> Tracker.term_for tracker file ~now ~holders
    | None -> invalid_arg "Term_policy.term_for: adaptive policy needs a tracker")
