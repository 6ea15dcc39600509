type cell = { key : int; mutable count : int; mutable sampled : int }

(* [moved] holds exactly the cells whose [count] differs from [sampled]:
   counts only grow, so a cell joins it on its first bump after a sample. *)
type axis = { cells : cell Int_tbl.t; mutable moved : cell list }

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

let make_axis () = { cells = Int_tbl.create 32; moved = [] }

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
  match Int_tbl.find axis.cells key with
  | cell ->
    if cell.count = cell.sampled then axis.moved <- cell :: axis.moved;
    cell.count <- cell.count + 1
  | exception Not_found ->
    let cell = { key; count = 1; sampled = 0 } in
    Int_tbl.add axis.cells key cell;
    axis.moved <- cell :: axis.moved

let sample axis =
  match axis.moved with
  | [] -> [||]
  | moved ->
    axis.moved <- [];
    let pairs = Array.make (2 * List.length moved) 0 in
    List.iteri
      (fun i cell ->
        pairs.(2 * i) <- cell.key;
        pairs.((2 * i) + 1) <- cell.count - cell.sampled;
        cell.sampled <- cell.count)
      (List.sort (fun a b -> Int.compare a.key b.key) moved);
    pairs

let total axis = Int_tbl.fold (fun _ cell acc -> acc + cell.count) axis.cells 0

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
