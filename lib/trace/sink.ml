type t = { enabled : bool; push : Event.t -> unit; flush : unit -> unit }

let null = { enabled = false; push = ignore; flush = ignore }
let enabled t = t.enabled
let emit t at ev = if t.enabled then t.push { Event.at; ev }
let flush t = t.flush ()

(* Wrap every push in caller-supplied brackets — the profiler uses this to
   account trace emission as a nested [trace/emit] cost-center span.  A
   disabled sink is returned untouched so the fast path stays one branch. *)
let observe ~enter ~leave sink =
  if not sink.enabled then sink
  else
    {
      sink with
      push =
        (fun e ->
          enter ();
          sink.push e;
          leave ());
    }

let tee sinks =
  let live = List.filter (fun s -> s.enabled) sinks in
  match live with
  | [] -> null
  | [ s ] -> s
  | live ->
    {
      enabled = true;
      push = (fun e -> List.iter (fun s -> s.push e) live);
      flush = (fun () -> List.iter (fun s -> s.flush ()) live);
    }

(* Unbounded buffer *)

type buffer = { mutable events : Event.t list }

let buffer () = { events = [] }

let buffer_sink b =
  { enabled = true; push = (fun e -> b.events <- e :: b.events); flush = ignore }

let buffer_contents b = List.rev b.events

(* JSONL writer *)

let jsonl oc =
  {
    enabled = true;
    push =
      (fun e ->
        output_string oc (Codec.encode e);
        output_char oc '\n');
    flush = (fun () -> Stdlib.flush oc);
  }
