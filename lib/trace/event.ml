type drop_cause = Loss | Partition | Down
type release_cause = Approved | Writer_self

type msg_kind =
  | M_read_req
  | M_read_rep
  | M_extend_req
  | M_extend_rep
  | M_write_req
  | M_write_rep
  | M_approve_req
  | M_approve_rep
  | M_installed
  | M_other of string

let msg_kind_name = function
  | M_read_req -> "read-req"
  | M_read_rep -> "read-rep"
  | M_extend_req -> "extend-req"
  | M_extend_rep -> "extend-rep"
  | M_write_req -> "write-req"
  | M_write_rep -> "write-rep"
  | M_approve_req -> "approve-req"
  | M_approve_rep -> "approve-rep"
  | M_installed -> "installed-refresh"
  | M_other s -> s

let msg_kind_of_name = function
  | "read-req" -> M_read_req
  | "read-rep" -> M_read_rep
  | "extend-req" -> M_extend_req
  | "extend-rep" -> M_extend_rep
  | "write-req" -> M_write_req
  | "write-rep" -> M_write_rep
  | "approve-req" -> M_approve_req
  | "approve-rep" -> M_approve_rep
  | "installed-refresh" -> M_installed
  | s -> M_other s

type kind =
  | Lease_grant of {
      file : int;
      holder : int;
      term_s : float option;
      server_expiry : float option;
      server_now : float;
      renewal : bool;
    }
  | Lease_release of { file : int; holder : int; cause : release_cause }
  | Lease_expire of { file : int; holder : int; expired_at : float option }
      (** the server reaped an expired record: the lease lapsed on the
          server clock ([expired_at], server-local; [None] = never, which
          cannot expire and so never appears in practice).  Emitted at the
          reap instant — lazily on access or from the periodic sweep —
          which may be well after [expired_at].  Distinct from
          {!Lease_release}: nobody approved anything. *)
  | Wait_begin of {
      write : int;
      op : int;
      file : int;
      writer : int;
      waiting : int list;
      deadline : float option;
      server_now : float;
    }
  | Wait_expire of { write : int; file : int }
  | Approval_request of { write : int; file : int; dsts : int list }
  | Approval_reply of { write : int; file : int; holder : int }
  | Commit of {
      write : int option;
      op : int;
      file : int;
      writer : int;
      version : int;
      server_now : float;
      waited_s : float;
    }
  | Installed_cover of { file : int; until : float }
  | Client_lease of {
      host : int;
      file : int;
      version : int;
      expiry : float option;
      local_now : float;
    }
  | Cache_hit of { host : int; file : int; version : int; local_now : float }
  | Cache_miss of { host : int; file : int }
  | Cache_invalidate of { host : int; file : int }
  | Net_send of { src : int; dst : int; kind : msg_kind; corr : int }
  | Net_deliver of { src : int; dst : int; kind : msg_kind; corr : int }
  | Net_drop of { src : int; dst : int; kind : msg_kind; corr : int; cause : drop_cause }
  | Crash of { host : int }
  | Recover of { host : int }
  | Clock_drift of { host : int; drift : float }
  | Clock_step of { host : int; step_s : float }
  | Heartbeat of { pending : int }

type t = { at : float; ev : kind }

let kind_name = function
  | Lease_grant _ -> "lease-grant"
  | Lease_release _ -> "lease-release"
  | Lease_expire _ -> "lease-expire"
  | Wait_begin _ -> "wait-begin"
  | Wait_expire _ -> "wait-expire"
  | Approval_request _ -> "approval-request"
  | Approval_reply _ -> "approval-reply"
  | Commit _ -> "commit"
  | Installed_cover _ -> "installed-cover"
  | Client_lease _ -> "client-lease"
  | Cache_hit _ -> "cache-hit"
  | Cache_miss _ -> "cache-miss"
  | Cache_invalidate _ -> "cache-invalidate"
  | Net_send _ -> "net-send"
  | Net_deliver _ -> "net-deliver"
  | Net_drop _ -> "net-drop"
  | Crash _ -> "crash"
  | Recover _ -> "recover"
  | Clock_drift _ -> "clock-drift"
  | Clock_step _ -> "clock-step"
  | Heartbeat _ -> "heartbeat"

let drop_cause_name = function
  | Loss -> "loss"
  | Partition -> "partition"
  | Down -> "down"

let release_cause_name = function
  | Approved -> "approved"
  | Writer_self -> "writer-self"

let pp_opt ppf = function
  | None -> Format.pp_print_string ppf "inf"
  | Some v -> Format.fprintf ppf "%g" v

let pp_corr ppf corr = if corr >= 0 then Format.fprintf ppf "#%d" corr

let pp_kind ppf = function
  | Lease_grant { file; holder; term_s; server_expiry; server_now; renewal } ->
    Format.fprintf ppf "lease-grant file=%d holder=%d term=%a expiry=%a now=%g%s" file holder
      pp_opt term_s pp_opt server_expiry server_now
      (if renewal then " (renewal)" else "")
  | Lease_release { file; holder; cause } ->
    Format.fprintf ppf "lease-release file=%d holder=%d cause=%s" file holder
      (release_cause_name cause)
  | Lease_expire { file; holder; expired_at } ->
    Format.fprintf ppf "lease-expire file=%d holder=%d expired=%a" file holder pp_opt expired_at
  | Wait_begin { write; op; file; writer; waiting; deadline; server_now } ->
    Format.fprintf ppf
      "wait-begin write=%d op=%d file=%d writer=%d waiting=[%a] deadline=%a now=%g" write op file
      writer
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ';')
         Format.pp_print_int)
      waiting pp_opt deadline server_now
  | Wait_expire { write; file } -> Format.fprintf ppf "wait-expire write=%d file=%d" write file
  | Approval_request { write; file; dsts } ->
    Format.fprintf ppf "approval-request write=%d file=%d dsts=[%a]" write file
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ';')
         Format.pp_print_int)
      dsts
  | Approval_reply { write; file; holder } ->
    Format.fprintf ppf "approval-reply write=%d file=%d holder=%d" write file holder
  | Commit { write; op; file; writer; version; server_now; waited_s } ->
    Format.fprintf ppf "commit%s op=%d file=%d writer=%d v=%d now=%g waited=%g"
      (match write with None -> "" | Some w -> Printf.sprintf " write=%d" w)
      op file writer version server_now waited_s
  | Installed_cover { file; until } ->
    Format.fprintf ppf "installed-cover file=%d until=%g" file until
  | Client_lease { host; file; version; expiry; local_now } ->
    Format.fprintf ppf "client-lease host=%d file=%d v=%d expiry=%a now=%g" host file version
      pp_opt expiry local_now
  | Cache_hit { host; file; version; local_now } ->
    Format.fprintf ppf "cache-hit host=%d file=%d v=%d now=%g" host file version local_now
  | Cache_miss { host; file } -> Format.fprintf ppf "cache-miss host=%d file=%d" host file
  | Cache_invalidate { host; file } ->
    Format.fprintf ppf "cache-invalidate host=%d file=%d" host file
  | Net_send { src; dst; kind; corr } ->
    Format.fprintf ppf "net-send %d->%d %s%a" src dst (msg_kind_name kind) pp_corr corr
  | Net_deliver { src; dst; kind; corr } ->
    Format.fprintf ppf "net-deliver %d->%d %s%a" src dst (msg_kind_name kind) pp_corr corr
  | Net_drop { src; dst; kind; corr; cause } ->
    Format.fprintf ppf "net-drop %d->%d %s%a cause=%s" src dst (msg_kind_name kind) pp_corr corr
      (drop_cause_name cause)
  | Crash { host } -> Format.fprintf ppf "crash host=%d" host
  | Recover { host } -> Format.fprintf ppf "recover host=%d" host
  | Clock_drift { host; drift } -> Format.fprintf ppf "clock-drift host=%d drift=%g" host drift
  | Clock_step { host; step_s } -> Format.fprintf ppf "clock-step host=%d step=%g" host step_s
  | Heartbeat { pending } -> Format.fprintf ppf "heartbeat pending=%d" pending

let pp ppf { at; ev } = Format.fprintf ppf "@[<h>[%12.6f] %a@]" at pp_kind ev
