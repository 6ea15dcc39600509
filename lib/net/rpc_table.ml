open Simtime

type 'k call = { req : int; started : Time.t; kind : 'k }
type ('k, 'm) entry = { call : 'k call; message : 'm; mutable timer : Engine.handle option }

type ('k, 'm) t = {
  engine : Engine.t;
  every : Time.Span.t;
  send : 'm -> unit;
  retransmissions : Stats.Counter.t;
  calls : ('k, 'm) entry Int_tbl.t;  (** by request id *)
  mutable next_req : int;
}

let create engine ~every ~send ~retransmissions =
  { engine; every; send; retransmissions; calls = Int_tbl.create 32; next_req = 0 }

let fresh_req t =
  let req = t.next_req in
  t.next_req <- t.next_req + 1;
  req

(* Answering or forgetting a call cancels its timer, so a timer that fires
   always belongs to a call still outstanding. *)
let rec arm t e =
  e.timer <-
    Some
      (Engine.schedule_after t.engine t.every (fun () ->
           Stats.Counter.incr t.retransmissions;
           t.send e.message;
           arm t e))

let start t ~req kind message =
  let e = { call = { req; started = Engine.now t.engine; kind }; message; timer = None } in
  Int_tbl.replace t.calls req e;
  t.send message;
  arm t e

let find t req = Option.map (fun e -> e.call) (Int_tbl.find_opt t.calls req)

let cancel e = match e.timer with Some h -> Engine.cancel h | None -> ()

let finish t req =
  Option.iter cancel (Int_tbl.find_opt t.calls req);
  Int_tbl.remove t.calls req

let cancel_all t =
  Int_tbl.iter (fun _ e -> cancel e) t.calls;
  Int_tbl.reset t.calls
