type violation = { at : float; invariant : string; detail : string }

type report = {
  events : int;
  checked_hits : int;
  checked_commits : int;
  violations : violation list;
}

let epsilon_s = 1e-5

type t = {
  state : Lease_state.t;
  mutable rev_violations : violation list;
  mutable n_events : int;
  mutable hits : int;
  mutable commits : int;
}

let create ?servers ?owner () =
  {
    state = Lease_state.create ?servers ?owner ();
    rev_violations = [];
    n_events = 0;
    hits = 0;
    commits = 0;
  }

let flag t at invariant detail =
  t.rev_violations <- { at; invariant; detail } :: t.rev_violations

let check_hit t at ~host ~file ~version ~local_now =
  t.hits <- t.hits + 1;
  let s = t.state in
  let lease = Lease_state.client_lease s ~host ~file in
  (if lease < 0 then
     flag t at "local-read-validity"
       (Printf.sprintf "host %d hit file %d with no recorded lease" host file)
   else
     let recorded = Lease_state.client_version s lease in
     if recorded <> version then
       flag t at "local-read-validity"
         (Printf.sprintf "host %d hit file %d at v%d but lease recorded v%d" host file version
            recorded)
     else if local_now >= Lease_state.client_expiry s lease then
       flag t at "local-read-validity"
         (Printf.sprintf "host %d hit file %d after local expiry (local clock %.6f >= expiry %.6f)"
            host file local_now
            (Lease_state.client_expiry s lease)));
  let v = Lease_state.committed s file in
  if version < v then
    flag t at "stale-hit"
      (Printf.sprintf "host %d read file %d at v%d but v%d is committed" host file version v)

(* Every lease a non-writer holds on the file must have expired at the
   server clock, flagged in ascending holder order, and so must the file's
   installed coverage. *)
let check_commit t at ~file ~writer ~version ~server_now =
  t.commits <- t.commits + 1;
  (match Lease_state.outliving t.state ~file ~except:writer ~server_now ~slack:epsilon_s with
  | [] -> ()
  | live ->
    List.iter
      (fun (holder, e) ->
        if e = infinity then
          flag t at "commit-vs-lease"
            (Printf.sprintf "commit of file %d v%d with infinite lease held by %d" file version
               holder)
        else
          flag t at "commit-vs-lease"
            (Printf.sprintf
               "commit of file %d v%d while host %d's lease runs to %.6f (server clock %.6f)" file
               version holder e server_now))
      live);
  match Lease_state.cover t.state file with
  | Some until when until > server_now +. epsilon_s ->
    flag t at "commit-vs-lease"
      (Printf.sprintf "commit of file %d v%d inside installed coverage to %.6f (server clock %.6f)"
         file version until server_now)
  | _ -> ()

(* Each event is judged against the state before it, then applied; the
   fold keeps nothing of a hit. *)
let feed t ({ at; ev } as e : Event.t) =
  t.n_events <- t.n_events + 1;
  match ev with
  | Event.Cache_hit { host; file; version; local_now } ->
    check_hit t at ~host ~file ~version ~local_now
  | Event.Commit { file; writer; version; server_now; _ } ->
    check_commit t at ~file ~writer ~version ~server_now;
    Lease_state.feed t.state e
  | _ -> Lease_state.feed t.state e

let report t =
  {
    events = t.n_events;
    checked_hits = t.hits;
    checked_commits = t.commits;
    violations = List.rev t.rev_violations;
  }

let sink t = { Sink.enabled = true; push = feed t; flush = ignore }

let check ?servers ?owner events =
  let t = create ?servers ?owner () in
  List.iter (feed t) events;
  report t

let ok r = match r.violations with [] -> true | _ :: _ -> false

let pp_violation ppf v =
  Format.fprintf ppf "@[<h>[%12.6f] %-20s %s@]" v.at v.invariant v.detail

let pp_report ppf r =
  Format.fprintf ppf "@[<v>checked %d events (%d cache hits, %d commits): " r.events
    r.checked_hits r.checked_commits;
  (match r.violations with
  | [] -> Format.fprintf ppf "OK, no violations"
  | vs ->
    Format.fprintf ppf "%d violation%s@,%a" (List.length vs)
      (if List.length vs = 1 then "" else "s")
      (Format.pp_print_list pp_violation) vs);
  Format.fprintf ppf "@]"
