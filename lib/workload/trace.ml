open Simtime

type t = { ops : Op.t list; length : int }

let of_ops ops =
  let sorted = List.sort Op.compare_by_time ops in
  { ops = sorted; length = List.length sorted }

let ops t = t.ops
let length t = t.length

let duration t =
  let rec last = function
    | [] -> Time.Span.zero
    | [ (op : Op.t) ] -> Time.Span.since_epoch op.at
    | _ :: rest -> last rest
  in
  last t.ops

let merge traces = of_ops (List.concat_map ops traces)

let filter t ~f = of_ops (List.filter f t.ops)

type summary = {
  operations : int;
  reads : int;
  writes : int;
  temporary_ops : int;
  clients : int;
  files : int;
  duration_sec : float;
  read_rate_per_client : float;
  write_rate_per_client : float;
  read_write_ratio : float;
}

let summarize t =
  let reads = ref 0 and writes = ref 0 and temporary = ref 0 in
  let clients = Hashtbl.create 8 and files = Hashtbl.create 64 in
  List.iter
    (fun (op : Op.t) ->
      Hashtbl.replace clients op.client ();
      Hashtbl.replace files op.file ();
      if op.temporary then incr temporary
      else
        match op.kind with
        | Op.Read -> incr reads
        | Op.Write -> incr writes)
    t.ops;
  let duration_sec = Time.Span.to_sec (duration t) in
  let client_count = Int.max 1 (Hashtbl.length clients) in
  let per_client count =
    if duration_sec <= 0. then 0.
    else float_of_int count /. duration_sec /. float_of_int client_count
  in
  {
    operations = t.length;
    reads = !reads;
    writes = !writes;
    temporary_ops = !temporary;
    clients = Hashtbl.length clients;
    files = Hashtbl.length files;
    duration_sec;
    read_rate_per_client = per_client !reads;
    write_rate_per_client = per_client !writes;
    read_write_ratio =
      (if !writes = 0 then infinity else float_of_int !reads /. float_of_int !writes);
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>operations        %d@,reads             %d@,writes            %d@,temporary ops     %d@,\
     clients           %d@,files touched     %d@,duration          %.1f s@,\
     R (reads/s/client)  %.4f@,W (writes/s/client) %.4f@,read:write ratio  %.1f@]"
    s.operations s.reads s.writes s.temporary_ops s.clients s.files s.duration_sec
    s.read_rate_per_client s.write_rate_per_client s.read_write_ratio
