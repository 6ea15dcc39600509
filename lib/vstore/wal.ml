open Simtime

type mode = Max_term_only | Detailed

type t = {
  mode : mode;
  mutable max_term : Time.Span.t;
  expiries : Time.t File_id.Tbl.t;
  mutable io_records : int;
}

let create mode = { mode; max_term = Time.Span.zero; expiries = File_id.Tbl.create 64; io_records = 0 }

let mode t = t.mode

let record_grant t file ~term ~expiry =
  (match t.mode with
  | Max_term_only ->
    if Time.Span.(term > t.max_term) then begin
      t.max_term <- term;
      t.io_records <- t.io_records + 1
    end
  | Detailed ->
    let later_than_known =
      match File_id.Tbl.find_opt t.expiries file with
      | Some known -> Time.(expiry > known)
      | None -> true
    in
    if later_than_known then begin
      File_id.Tbl.replace t.expiries file expiry;
      t.io_records <- t.io_records + 1
    end);
  if Time.Span.(term > t.max_term) then t.max_term <- term

let max_term t = t.max_term

let recovery_wait_for t file ~recovered_at =
  match t.mode with
  | Max_term_only -> t.max_term
  | Detailed -> (
    match File_id.Tbl.find_opt t.expiries file with
    | None -> Time.Span.zero
    | Some expiry -> Time.Span.clamp_non_negative (Time.diff expiry recovered_at))

let io_records t = t.io_records
