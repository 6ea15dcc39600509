type req_id = int
type write_id = int

type payload =
  | Read_request of { req : req_id; file : Vstore.File_id.t }
  | Read_reply of {
      req : req_id;
      file : Vstore.File_id.t;
      version : Vstore.Version.t;
      lease : Lease.grant option;
    }
  | Extend_request of { req : req_id; files : Vstore.File_id.t array }
  | Extend_reply of {
      req : req_id;
      files : Vstore.File_id.t array;
      versions : Vstore.Version.t array;
      leases : Lease.grant option array;
    }
  | Write_request of { req : req_id; file : Vstore.File_id.t }
  | Write_reply of { req : req_id; file : Vstore.File_id.t; version : Vstore.Version.t }
  | Approval_request of { write : write_id; file : Vstore.File_id.t }
  | Approval_reply of { write : write_id; file : Vstore.File_id.t }
  | Installed_refresh of {
      covered : (Vstore.File_id.t * Vstore.Version.t) list;
      term : Simtime.Time.Span.t;
    }

type category = Extension | Approval | Installed | Write_transfer

let category = function
  | Read_request _ | Read_reply _ | Extend_request _ | Extend_reply _ -> Extension
  | Approval_request _ | Approval_reply _ -> Approval
  | Installed_refresh _ -> Installed
  | Write_request _ | Write_reply _ -> Write_transfer

let kind_name = function
  | Read_request _ -> "read-req"
  | Read_reply _ -> "read-rep"
  | Extend_request _ -> "extend-req"
  | Extend_reply _ -> "extend-rep"
  | Write_request _ -> "write-req"
  | Write_reply _ -> "write-rep"
  | Approval_request _ -> "approve-req"
  | Approval_reply _ -> "approve-rep"
  | Installed_refresh _ -> "installed-refresh"

(* Typed trace classification: the message kind plus the correlation id
   tying the packet to its operation — the client request id for RPC
   traffic, the server write id for approval traffic, none for the
   installed-files multicast. *)
let trace_class = function
  | Read_request { req; _ } -> (Trace.Event.M_read_req, req)
  | Read_reply { req; _ } -> (Trace.Event.M_read_rep, req)
  | Extend_request { req; _ } -> (Trace.Event.M_extend_req, req)
  | Extend_reply { req; _ } -> (Trace.Event.M_extend_rep, req)
  | Write_request { req; _ } -> (Trace.Event.M_write_req, req)
  | Write_reply { req; _ } -> (Trace.Event.M_write_rep, req)
  | Approval_request { write; _ } -> (Trace.Event.M_approve_req, write)
  | Approval_reply { write; _ } -> (Trace.Event.M_approve_rep, write)
  | Installed_refresh _ -> (Trace.Event.M_installed, -1)

let pp ppf = function
  | Read_request { req; file } -> Format.fprintf ppf "read-req #%d %a" req Vstore.File_id.pp file
  | Read_reply { req; file; version; _ } ->
    Format.fprintf ppf "read-rep #%d %a v%a" req Vstore.File_id.pp file Vstore.Version.pp version
  | Extend_request { req; files } ->
    Format.fprintf ppf "extend-req #%d (%d files)" req (Array.length files)
  | Extend_reply { req; files; _ } ->
    Format.fprintf ppf "extend-rep #%d (%d grants)" req (Array.length files)
  | Write_request { req; file } -> Format.fprintf ppf "write-req #%d %a" req Vstore.File_id.pp file
  | Write_reply { req; file; version } ->
    Format.fprintf ppf "write-rep #%d %a v%a" req Vstore.File_id.pp file Vstore.Version.pp version
  | Approval_request { write; file } ->
    Format.fprintf ppf "approve-req w%d %a" write Vstore.File_id.pp file
  | Approval_reply { write; file } ->
    Format.fprintf ppf "approve-rep w%d %a" write Vstore.File_id.pp file
  | Installed_refresh { covered; term } ->
    Format.fprintf ppf "installed-refresh (%d files, term %a)" (List.length covered)
      Simtime.Time.Span.pp term
