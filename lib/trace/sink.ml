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

(* Ring buffer *)

type ring = {
  cap : int;
  buf : Event.t option array;
  mutable next : int;  (* slot the next event lands in *)
  mutable len : int;
  mutable dropped : int;
}

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Trace.Sink.ring: capacity must be positive";
  { cap = capacity; buf = Array.make capacity None; next = 0; len = 0; dropped = 0 }

let ring_push r e =
  if r.len = r.cap then r.dropped <- r.dropped + 1 else r.len <- r.len + 1;
  r.buf.(r.next) <- Some e;
  r.next <- (r.next + 1) mod r.cap

let ring_sink r = { enabled = true; push = ring_push r; flush = ignore }

let ring_contents r =
  (* Oldest slot: [next - len] modulo capacity. *)
  let start = (r.next - r.len + r.cap) mod r.cap in
  List.init r.len (fun i ->
      match r.buf.((start + i) mod r.cap) with
      | Some e -> e
      | None -> assert false)

let ring_dropped r = r.dropped

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
