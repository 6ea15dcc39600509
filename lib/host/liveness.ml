type entry = { mutable up : bool; mutable on_crash : unit -> unit; mutable on_recover : unit -> unit }

(* Host ids are dense small ints; entries live in a growable array indexed
   by [Host_id.to_int].  [is_up] runs twice per simulated message (sender
   and receiver side), so it must be an array load, not a hash lookup. *)
type t = { mutable slots : entry option array }

let create () = { slots = [||] }

let ensure t idx =
  let cap = Array.length t.slots in
  if idx >= cap then begin
    let cap' = Int.max 16 (Int.max (idx + 1) (2 * cap)) in
    let slots' = Array.make cap' None in
    Array.blit t.slots 0 slots' 0 cap;
    t.slots <- slots'
  end

let slot t host =
  let idx = Host_id.to_int host in
  if idx < Array.length t.slots then t.slots.(idx) else None

let register t host ?(on_crash = ignore) ?(on_recover = ignore) () =
  match slot t host with
  | Some entry ->
    entry.on_crash <- on_crash;
    entry.on_recover <- on_recover
  | None ->
    let idx = Host_id.to_int host in
    ensure t idx;
    t.slots.(idx) <- Some { up = true; on_crash; on_recover }

let is_up t host =
  let idx = Host_id.to_int host in
  if idx < Array.length t.slots then
    match Array.unsafe_get t.slots idx with Some entry -> entry.up | None -> true
  else true

let crash t host =
  match slot t host with
  | Some entry when entry.up ->
    entry.up <- false;
    entry.on_crash ()
  | Some _ -> ()
  | None ->
    let idx = Host_id.to_int host in
    ensure t idx;
    t.slots.(idx) <- Some { up = false; on_crash = ignore; on_recover = ignore }

let recover t host =
  match slot t host with
  | Some entry when not entry.up ->
    entry.up <- true;
    entry.on_recover ()
  | Some _ -> ()
  | None -> ()
