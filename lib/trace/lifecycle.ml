type lease = {
  file : int;
  holder : int;
  granted_at : float;
  mutable renewals : int;
  mutable last_expiry : float option;
  mutable ended : (Lease_state.end_cause * float) option;
}

(* The first [keep] leases started, indexed by the number the fold gives
   them, and how many started in all. *)
type history = { mutable leases : lease array; mutable n : int; keep : int; mutable started : int }

type t = {
  state : Lease_state.t;
  history : history;
  mutable rev_waits : Lease_state.wait list;
  mutable commits : int;
  mutable last_at : float;
}

let create ?servers ?owner ?keep () =
  let keep =
    match keep with
    | None -> max_int
    | Some k when k >= 0 -> k
    | Some _ -> invalid_arg "Lifecycle.create: negative keep"
  in
  let history = { leases = [||]; n = 0; keep; started = 0 } in
  let on_end id cause at = if id < history.n then history.leases.(id).ended <- Some (cause, at) in
  let state = Lease_state.create ?servers ?owner ~on_end () in
  { state; history; rev_waits = []; commits = 0; last_at = 0. }

let push h l =
  if h.n = Array.length h.leases then begin
    let grown = Array.make (Int.max 64 (2 * h.n)) l in
    Array.blit h.leases 0 grown 0 h.n;
    h.leases <- grown
  end;
  h.leases.(h.n) <- l;
  h.n <- h.n + 1

let feed t ({ at; ev } as e : Event.t) =
  Lease_state.feed t.state e;
  t.last_at <- at;
  match ev with
  | Event.Lease_grant { file; holder; server_expiry; _ } ->
    let h = t.history and id = Lease_state.lease t.state ~file ~holder in
    if id < h.n then begin
      let l = h.leases.(id) in
      l.renewals <- l.renewals + 1;
      l.last_expiry <- server_expiry
    end
    else if id = h.started then begin
      (* a lease starts; one past [keep] is only counted *)
      h.started <- h.started + 1;
      if h.n < h.keep then
        push h
          { file; holder; granted_at = at; renewals = 0; last_expiry = server_expiry; ended = None }
    end
  | Event.Wait_begin { write; _ } -> t.rev_waits <- Lease_state.wait t.state write :: t.rev_waits
  | Event.Commit _ -> t.commits <- t.commits + 1
  | _ -> ()

let sink t = { Sink.enabled = true; push = feed t; flush = ignore }
let leases t = List.init t.history.n (Array.get t.history.leases)
let started t = t.history.started
let waits t = List.rev t.rev_waits
let commits t = t.commits
let lease_end t l = match l.ended with Some (_, at) -> at | None -> t.last_at
let last_at t = t.last_at
