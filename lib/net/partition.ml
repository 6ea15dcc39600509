module Host_id = Host.Host_id

type t = { groups : int Host_id.Tbl.t; mutable next_group : int }

let create () = { groups = Host_id.Tbl.create 16; next_group = 1 }

let set_group t host group = Host_id.Tbl.replace t.groups host group

let group t host = Option.value (Host_id.Tbl.find_opt t.groups host) ~default:0

let isolate t hosts =
  let fresh = t.next_group in
  t.next_group <- t.next_group + 1;
  List.iter (fun host -> set_group t host fresh) hosts

let heal t = Host_id.Tbl.reset t.groups

(* Fast path: with no groups ever assigned (or after [heal]) every host is
   in group 0, and the per-delivery check is one length load. *)
let connected t a b = Host_id.Tbl.length t.groups = 0 || group t a = group t b
