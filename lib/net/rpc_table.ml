open Simtime

type ('k, 'm) call = {
  req : int;
  started : Time.t;
  kind : 'k;
  dst : Host.Host_id.t;
  message : 'm;
  mutable tries : int;
  mutable timer : Engine.handle option;
}

type ('k, 'm) t = {
  net : 'm Net.t;
  host : Host.Host_id.t;
  retry_max : Time.Span.t;
  jitter : Prng.Splitmix.t option;
  mutable retransmissions : int;
  mutable calls : ('k, 'm) call list;
      (** newest first.  A client has a handful of calls outstanding at
          most, so a scan beats hashing the id. *)
  mutable next_req : int;
}

let retry_interval = Time.Span.of_sec 1.

let create ~net ~host ?req_origin ~retry_max ?jitter () =
  let next_req =
    match req_origin with Some origin -> origin | None -> Host.Host_id.to_int host lsl 32
  in
  { net; host; retry_max; jitter; retransmissions = 0; calls = []; next_req }

let net t = t.net
let host t = t.host

let fresh_req t =
  let req = t.next_req in
  t.next_req <- t.next_req + 1;
  req

let delay t call =
  let base = Time.Span.scale (Float.of_int (1 lsl Int.min call.tries 20)) retry_interval in
  let capped = Time.Span.min base t.retry_max in
  match t.jitter with
  | Some rng -> Time.Span.scale (0.5 +. Prng.Splitmix.float rng) capped
  | None -> capped

let send t call = Net.send t.net ~src:t.host ~dst:call.dst call.message

(* Answering or forgetting a call cancels its timer, so a timer that fires
   always belongs to a call still outstanding. *)
let rec arm t call =
  let fire () =
    let p = Engine.profiler (Net.engine t.net) in
    if Profile.Recorder.enabled p then Profile.Recorder.mark p Profile.Center.Client_op;
    t.retransmissions <- t.retransmissions + 1;
    call.tries <- call.tries + 1;
    send t call;
    arm t call
  in
  call.timer <- Some (Engine.schedule_after (Net.engine t.net) (delay t call) fire)

let start t ~req ~dst kind message =
  let call =
    { req; started = Engine.now (Net.engine t.net); kind; dst; message; tries = 0; timer = None }
  in
  t.calls <- call :: t.calls;
  send t call;
  arm t call

let find t req =
  let rec go = function
    | [] -> None
    | call :: rest -> if call.req = req then Some call else go rest
  in
  go t.calls

let cancel call = match call.timer with Some h -> Engine.cancel h | None -> ()

(* Shares the tail behind the call: a finish allocates only the cells
   before it, none when it is the newest. *)
let rec remove req = function
  | [] -> []
  | c :: rest ->
    if c.req = req then begin
      cancel c;
      rest
    end
    else c :: remove req rest

let finish t req = t.calls <- remove req t.calls

let cancel_all t =
  List.iter cancel t.calls;
  t.calls <- []

let length t = List.length t.calls
let retransmissions t = t.retransmissions
