type axis = int ref Int_tbl.t

type t = {
  reads_by_file : axis;
  reads_by_client : axis;
  extensions_by_file : axis;
  extensions_by_client : axis;
  approvals_by_file : axis;
  approvals_by_client : axis;
  write_waits_by_file : axis;
  write_waits_by_client : axis;
}

let make_axis () = Int_tbl.create 32

let create () =
  {
    reads_by_file = make_axis ();
    reads_by_client = make_axis ();
    extensions_by_file = make_axis ();
    extensions_by_client = make_axis ();
    approvals_by_file = make_axis ();
    approvals_by_client = make_axis ();
    write_waits_by_file = make_axis ();
    write_waits_by_client = make_axis ();
  }

let bump axis key =
  match Int_tbl.find_opt axis key with
  | Some cell -> incr cell
  | None -> Int_tbl.add axis key (ref 1)

let dump axis =
  Int_tbl.fold (fun key cell acc -> (key, !cell) :: acc) axis []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let total axis = Int_tbl.fold (fun _ cell acc -> acc + !cell) axis 0

let axes t =
  [
    ("reads/file", t.reads_by_file);
    ("reads/client", t.reads_by_client);
    ("extensions/file", t.extensions_by_file);
    ("extensions/client", t.extensions_by_client);
    ("approvals/file", t.approvals_by_file);
    ("approvals/client", t.approvals_by_client);
    ("write-waits/file", t.write_waits_by_file);
    ("write-waits/client", t.write_waits_by_client);
  ]
