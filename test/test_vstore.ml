(* Unit tests for the storage substrate: versioned store with history,
   the namespace, and the persistent lease record (WAL). *)

open Simtime

let sec = Time.of_sec
let file = Vstore.File_id.of_int

let test_store_versions () =
  let store = Vstore.Store.create () in
  Alcotest.(check int) "implicit initial version" 0
    (Vstore.Version.to_int (Vstore.Store.current store (file 0)));
  let v1 = Vstore.Store.commit store (file 0) ~at:(sec 1.) in
  Alcotest.(check int) "first commit" 1 (Vstore.Version.to_int v1);
  let v2 = Vstore.Store.commit store (file 0) ~at:(sec 2.) in
  Alcotest.(check int) "second commit" 2 (Vstore.Version.to_int v2);
  Alcotest.(check int) "current" 2 (Vstore.Version.to_int (Vstore.Store.current store (file 0)));
  Alcotest.(check int) "files independent" 0
    (Vstore.Version.to_int (Vstore.Store.current store (file 1)));
  Alcotest.(check int) "commit count" 2 (Vstore.Store.commits store)

let test_store_rejects_time_travel () =
  let store = Vstore.Store.create () in
  ignore (Vstore.Store.commit store (file 0) ~at:(sec 5.));
  Alcotest.check_raises "non-monotone commit"
    (Invalid_argument "Store.commit: commit instants must be non-decreasing") (fun () ->
      ignore (Vstore.Store.commit store (file 0) ~at:(sec 4.)))

let test_current_at () =
  let store = Vstore.Store.create () in
  ignore (Vstore.Store.commit store (file 0) ~at:(sec 10.));
  ignore (Vstore.Store.commit store (file 0) ~at:(sec 20.));
  let at t = Vstore.Version.to_int (Vstore.Store.current_at store (file 0) (sec t)) in
  Alcotest.(check int) "before any write" 0 (at 5.);
  Alcotest.(check int) "at first commit instant" 1 (at 10.);
  Alcotest.(check int) "between" 1 (at 15.);
  Alcotest.(check int) "after second" 2 (at 25.)

let test_was_current_during () =
  let store = Vstore.Store.create () in
  ignore (Vstore.Store.commit store (file 0) ~at:(sec 10.));
  let check version start finish =
    Vstore.Store.was_current_during store (file 0) (Vstore.Version.of_int version)
      ~start:(sec start) ~finish:(sec finish)
  in
  Alcotest.(check bool) "v0 before the write" true (check 0 1. 5.);
  Alcotest.(check bool) "v0 spanning the write" true (check 0 5. 15.);
  Alcotest.(check bool) "v0 after the write is stale" false (check 0 11. 12.);
  Alcotest.(check bool) "v1 after the write" true (check 1 11. 12.);
  Alcotest.(check bool) "v1 before the write did not exist" false (check 1 1. 5.);
  Alcotest.(check bool) "v1 window touching commit" true (check 1 5. 10.);
  Alcotest.(check bool) "unknown version" false (check 7 0. 100.);
  Alcotest.check_raises "empty window"
    (Invalid_argument "Store.was_current_during: empty window") (fun () ->
      ignore (check 0 5. 4.))

let test_staleness_at () =
  let store = Vstore.Store.create () in
  ignore (Vstore.Store.commit store (file 0) ~at:(sec 10.));
  (match Vstore.Store.staleness_at store (file 0) (Vstore.Version.of_int 0) ~at:(sec 14.) with
  | Some age -> Alcotest.(check (float 1e-9)) "4 s stale" 4. (Time.Span.to_sec age)
  | None -> Alcotest.fail "expected staleness");
  Alcotest.(check bool) "current version not stale" true
    (Vstore.Store.staleness_at store (file 0) (Vstore.Version.of_int 1) ~at:(sec 14.) = None);
  Alcotest.(check bool) "old version not yet superseded" true
    (Vstore.Store.staleness_at store (file 0) (Vstore.Version.of_int 0) ~at:(sec 9.) = None)

(* Histories live in chunks of file ids allocated at a chunk's first
   commit.  Reads of files no commit touched allocate nothing, wherever
   they fall: past the directory, in a chunk never written, or beside a
   written file; and neighbouring ids on either side of a chunk boundary
   keep their own histories. *)
let test_store_chunks () =
  let store = Vstore.Store.create () in
  (* the n-th id gets [writes n] commits, at 10 s, 20 s, ... *)
  let ids =
    List.concat_map (fun base -> List.init 6 (fun i -> base - 3 + i)) [ 256; 4096; 70_003 ]
  in
  let writes n = (n mod 3) + 1 in
  List.iteri
    (fun n f ->
      for k = 1 to writes n do
        ignore (Vstore.Store.commit store (file f) ~at:(sec (float_of_int (10 * k))))
      done)
    ids;
  List.iteri
    (fun n f ->
      let at t = Vstore.Version.to_int (Vstore.Store.current_at store (file f) (sec t)) in
      Alcotest.(check int) (Printf.sprintf "file %d current" f) (writes n)
        (Vstore.Version.to_int (Vstore.Store.current store (file f)));
      Alcotest.(check int) (Printf.sprintf "file %d at 15 s" f) 1 (at 15.);
      Alcotest.(check int) (Printf.sprintf "file %d at 5 s" f) 0 (at 5.))
    ids;
  Alcotest.(check int) "commit count"
    (List.fold_left ( + ) 0 (List.mapi (fun n _ -> writes n) ids))
    (Vstore.Store.commits store);
  let untouched = Array.map file [| 0; 252; 4092; 5_000; 69_999; 70_006; 1 lsl 25 |] in
  let start = sec 1. and finish = sec 2. and reads = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to reads do
    for j = 0 to Array.length untouched - 1 do
      let f = untouched.(j) in
      if not (Vstore.Version.equal (Vstore.Store.current store f) Vstore.Version.initial) then
        Alcotest.failf "untouched file %d has a version" (Vstore.File_id.to_int f);
      if not (Vstore.Store.was_current_during store f Vstore.Version.initial ~start ~finish) then
        Alcotest.failf "untouched file %d was not initial" (Vstore.File_id.to_int f)
    done
  done;
  let words = Gc.minor_words () -. before in
  if words > 100. then
    Alcotest.failf "%d reads of untouched files allocated %.0f words"
      (reads * Array.length untouched) words

(* --- Namespace -------------------------------------------------------- *)

let fresh_allocator () =
  let next = ref 100 in
  fun () ->
    let id = Vstore.File_id.of_int !next in
    incr next;
    id

let test_namespace_basics () =
  let ns = Vstore.Namespace.create ~fresh_id:(fresh_allocator ()) in
  let dir = Vstore.Namespace.make_directory ns "/bin" in
  Alcotest.(check bool) "directory id stable" true
    (Vstore.File_id.equal dir (Vstore.Namespace.make_directory ns "/bin"));
  Alcotest.(check bool) "directory_id" true
    (Vstore.Namespace.directory_id ns "/bin" = Some dir);
  Alcotest.(check bool) "missing directory" true (Vstore.Namespace.directory_id ns "/nope" = None);
  Vstore.Namespace.bind ns ~dir:"/bin" ~name:"latex" (file 1);
  Alcotest.(check bool) "lookup hit" true
    (Vstore.Namespace.lookup ns ~dir:"/bin" ~name:"latex" = Some (file 1));
  Alcotest.(check bool) "lookup miss" true
    (Vstore.Namespace.lookup ns ~dir:"/bin" ~name:"vi" = None);
  Alcotest.(check bool) "lookup in missing dir" true
    (Vstore.Namespace.lookup ns ~dir:"/nope" ~name:"x" = None)

let test_namespace_rename () =
  let ns = Vstore.Namespace.create ~fresh_id:(fresh_allocator ()) in
  ignore (Vstore.Namespace.make_directory ns "/bin");
  Vstore.Namespace.bind ns ~dir:"/bin" ~name:"old" (file 1);
  Vstore.Namespace.rename ns ~dir:"/bin" ~old_name:"old" ~new_name:"new";
  Alcotest.(check bool) "old gone" true (Vstore.Namespace.lookup ns ~dir:"/bin" ~name:"old" = None);
  Alcotest.(check bool) "new present" true
    (Vstore.Namespace.lookup ns ~dir:"/bin" ~name:"new" = Some (file 1));
  Alcotest.check_raises "rename missing" Not_found (fun () ->
      Vstore.Namespace.rename ns ~dir:"/bin" ~old_name:"ghost" ~new_name:"x")

let test_namespace_unbind_and_listing () =
  let ns = Vstore.Namespace.create ~fresh_id:(fresh_allocator ()) in
  ignore (Vstore.Namespace.make_directory ns "/etc");
  Vstore.Namespace.bind ns ~dir:"/etc" ~name:"b" (file 2);
  Vstore.Namespace.bind ns ~dir:"/etc" ~name:"a" (file 1);
  Alcotest.(check (list string)) "sorted listing" [ "a"; "b" ]
    (List.map fst (Vstore.Namespace.bindings ns ~dir:"/etc"));
  Vstore.Namespace.unbind ns ~dir:"/etc" ~name:"a";
  Alcotest.(check (list string)) "after unbind" [ "b" ]
    (List.map fst (Vstore.Namespace.bindings ns ~dir:"/etc"));
  Alcotest.check_raises "unbind missing" Not_found (fun () ->
      Vstore.Namespace.unbind ns ~dir:"/etc" ~name:"a");
  Alcotest.check_raises "bindings of missing dir" Not_found (fun () ->
      ignore (Vstore.Namespace.bindings ns ~dir:"/none"))

(* --- WAL -------------------------------------------------------------- *)

let span = Time.Span.of_sec

let test_wal_max_term () =
  let wal = Vstore.Wal.create Vstore.Wal.Max_term_only in
  Alcotest.(check (float 1e-9)) "empty max term" 0. (Time.Span.to_sec (Vstore.Wal.max_term wal));
  Vstore.Wal.record_grant wal (file 0) ~term:(span 10.) ~expiry:(sec 20.);
  Vstore.Wal.record_grant wal (file 1) ~term:(span 5.) ~expiry:(sec 30.);
  Alcotest.(check (float 1e-9)) "max term retained" 10.
    (Time.Span.to_sec (Vstore.Wal.max_term wal));
  (* recovery wait is the max term regardless of the file *)
  Alcotest.(check (float 1e-9)) "wait for any file" 10.
    (Time.Span.to_sec (Vstore.Wal.recovery_wait_for wal (file 9) ~recovered_at:(sec 100.)));
  (* only term increases cost I/O *)
  Alcotest.(check int) "one persistent update" 1 (Vstore.Wal.io_records wal);
  Vstore.Wal.record_grant wal (file 2) ~term:(span 30.) ~expiry:(sec 40.);
  Alcotest.(check int) "second update on a longer term" 2 (Vstore.Wal.io_records wal)

let test_wal_detailed () =
  let wal = Vstore.Wal.create Vstore.Wal.Detailed in
  Vstore.Wal.record_grant wal (file 0) ~term:(span 10.) ~expiry:(sec 12.);
  Vstore.Wal.record_grant wal (file 1) ~term:(span 10.) ~expiry:(sec 30.);
  let wait f at = Time.Span.to_sec (Vstore.Wal.recovery_wait_for wal (file f) ~recovered_at:(sec at)) in
  Alcotest.(check (float 1e-9)) "residual lease" 7. (wait 0 5.);
  Alcotest.(check (float 1e-9)) "already expired" 0. (wait 0 20.);
  Alcotest.(check (float 1e-9)) "unknown file" 0. (wait 5 5.);
  Alcotest.(check (float 1e-9)) "per-file" 25. (wait 1 5.);
  (* stale expiry never shortens the record *)
  Vstore.Wal.record_grant wal (file 1) ~term:(span 1.) ~expiry:(sec 6.);
  Alcotest.(check (float 1e-9)) "expiry monotone per file" 25. (wait 1 5.);
  Alcotest.(check bool) "detailed mode costs more io" true (Vstore.Wal.io_records wal >= 2)

let () =
  Alcotest.run "vstore"
    [
      ( "store",
        [
          Alcotest.test_case "versions" `Quick test_store_versions;
          Alcotest.test_case "monotone commits" `Quick test_store_rejects_time_travel;
          Alcotest.test_case "current_at" `Quick test_current_at;
          Alcotest.test_case "was_current_during" `Quick test_was_current_during;
          Alcotest.test_case "staleness_at" `Quick test_staleness_at;
          Alcotest.test_case "chunks" `Quick test_store_chunks;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "basics" `Quick test_namespace_basics;
          Alcotest.test_case "rename" `Quick test_namespace_rename;
          Alcotest.test_case "unbind + listing" `Quick test_namespace_unbind_and_listing;
        ] );
      ( "wal",
        [
          Alcotest.test_case "max-term mode" `Quick test_wal_max_term;
          Alcotest.test_case "detailed mode" `Quick test_wal_detailed;
        ] );
    ]
