let us s = Json.Num (s *. 1e6)
let int i = Json.Num (float_of_int i)
let str s = Json.Str s

let span ~name ~pid ~tid ~ts ~dur ~args =
  Json.Obj
    [
      ("name", str name);
      ("ph", str "X");
      ("pid", int pid);
      ("tid", int tid);
      ("ts", us ts);
      ("dur", us (Float.max dur 0.));
      ("args", Json.Obj args);
    ]

let instant ~name ~pid ~ts ~args =
  Json.Obj
    [
      ("name", str name);
      ("ph", str "i");
      ("s", str "g");
      ("pid", int pid);
      ("tid", int 0);
      ("ts", us ts);
      ("args", Json.Obj args);
    ]

let counter ~name ~pid ~ts ~values =
  Json.Obj
    [ ("name", str name); ("ph", str "C"); ("pid", int pid); ("ts", us ts); ("args", Json.Obj values) ]

let end_name (l : Lifecycle.lease) =
  match l.ended with
  | None -> "active"
  | Some (Released c, _) -> "released-" ^ Event.release_cause_name c
  | Some (Expired, _) -> "expired"
  | Some (Commit_sweep, _) -> "commit-sweep"
  | Some (Regrant, _) -> "regrant"
  | Some (Server_crash, _) -> "server-crash"

type t = {
  life : Lifecycle.t;
  owner : int -> int;
  mutable rev_instants : Json.t list;  (** instants and counters, newest first *)
}

let create ?servers ?(owner = fun _ -> 0) () =
  { life = Lifecycle.create ?servers ~owner (); owner; rev_instants = [] }

let draw t j = t.rev_instants <- j :: t.rev_instants

let push t ({ at; ev } as e : Event.t) =
  Lifecycle.feed t.life e;
  match ev with
  | Event.Crash { host } -> draw t (instant ~name:"crash" ~pid:host ~ts:at ~args:[])
  | Event.Recover { host } -> draw t (instant ~name:"recover" ~pid:host ~ts:at ~args:[])
  | Event.Clock_drift { host; drift } ->
    draw t (instant ~name:"clock-drift" ~pid:host ~ts:at ~args:[ ("drift", Json.Num drift) ])
  | Event.Clock_step { host; step_s } ->
    draw t (instant ~name:"clock-step" ~pid:host ~ts:at ~args:[ ("step_s", Json.Num step_s) ])
  | Event.Net_drop { src; dst; kind; corr; cause } ->
    draw t
      (instant ~name:"net-drop" ~pid:src ~ts:at
         ~args:
           [
             ("dst", int dst);
             ("msg", str (Event.msg_kind_name kind));
             ("corr", int corr);
             ("cause", str (Event.drop_cause_name cause));
           ])
  (* the engine's queue depth, drawn under host 0, where every run has a server *)
  | Event.Heartbeat { pending } ->
    draw t (counter ~name:"pending-events" ~pid:0 ~ts:at ~values:[ ("pending", int pending) ])
  | _ -> ()

let sink t = { Sink.enabled = true; push = push t; flush = ignore }

(* The document is [{"traceEvents":[...]}], written one element at a time
   so that it is never held whole. *)
let output t oc =
  let life = t.life in
  let sep = ref "" in
  let item j =
    output_string oc !sep;
    output_string oc (Json.to_string j);
    sep := ","
  in
  output_string oc "{\"traceEvents\":[";
  List.iter
    (fun (l : Lifecycle.lease) ->
      item
        (span
           ~name:(Printf.sprintf "lease f%d" l.file)
           ~pid:l.holder ~tid:l.file ~ts:l.granted_at
           ~dur:(Lifecycle.lease_end life l -. l.granted_at)
           ~args:
             [
               ("renewals", int l.renewals);
               ("end", str (end_name l));
               ( "server_expiry",
                 match l.last_expiry with None -> Json.Null | Some e -> Json.Num e );
             ]))
    (Lifecycle.leases life);
  List.iter
    (fun (w : Lease_state.wait) ->
      let finish =
        match w.committed_at with Some at -> at | None -> Lifecycle.last_at life
      in
      item
        (span
           ~name:(Printf.sprintf "write-wait w%d f%d" w.write w.w_file)
           ~pid:(t.owner w.w_file) ~tid:w.w_file ~ts:w.began_at ~dur:(finish -. w.began_at)
           ~args:
             [
               ("writer", int w.writer);
               ("blockers", int (List.length w.blockers));
               ("by_expiry", Json.Bool w.by_expiry);
               ( "waited_s",
                 match w.waited_s with None -> Json.Null | Some s -> Json.Num s );
             ]))
    (Lifecycle.waits life);
  List.iter item (List.rev t.rev_instants);
  output_string oc "]}\n"

let write ?servers ?owner oc events =
  let t = create ?servers ?owner () in
  List.iter (push t) events;
  output t oc
