(* The repository benchmark: seeded workloads run end to end through the
   simulator's public entry points, each repeat in a fresh child process,
   plus a traced run that prices every layer.  See README.md.

     dune exec perfbench/main.exe -- [--workload NAME] [--seed N]
       [--repeats R | --seconds S] [--trace 0|1] [--out FILE] [--smoke] [--bless]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  The exit status is non-zero
   when any output check fails. *)

module J = Trace.Json

let now = Unix.gettimeofday

(* Events kept from the head of a traced run's stream for the replays. *)
let prefix_cap ~smoke = if smoke then 5_000 else 500_000

let shape_of (w : Workloads.t) ~smoke = if smoke then w.Workloads.smoke else w.Workloads.full

(* --- digests ----------------------------------------------------------- *)

(* One digest per top-level member of a simulated-output document, or per
   element when the member is an array, so a mismatch can name the first
   field that differs. *)
let fields_of (doc : J.t) =
  let md5 j = Digest.to_hex (Digest.string (J.to_string j)) in
  match doc with
  | J.Obj members ->
    List.concat_map
      (fun (k, v) ->
        match v with
        | J.Arr items -> List.mapi (fun i x -> (Printf.sprintf "%s[%d]" k i, md5 x)) items
        | _ -> [ (k, md5 v) ])
      members
  | J.Arr items -> List.mapi (fun i x -> (Printf.sprintf "[%d]" i, md5 x)) items
  | j -> [ ("", md5 j) ]

let field_to_json (p, h) = J.Arr [ J.Str p; J.Str h ]
let fields_to_json fs = J.Arr (List.map field_to_json fs)

let fields_of_json = function
  | J.Arr items ->
    List.map (function J.Arr [ J.Str p; J.Str h ] -> (p, h) | _ -> failwith "bad field list") items
  | _ -> failwith "bad field list"

(* The first path at which two field lists disagree. *)
let rec first_difference a b =
  match (a, b) with
  | [], [] -> None
  | (p, x) :: a, (q, y) :: b -> if p = q && x = y then first_difference a b else Some p
  | (p, _) :: _, [] | [], (p, _) :: _ -> Some p

(* --- child: one setup and one run of one workload ---------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    else find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let num x = J.Num x
let int n = J.Num (float_of_int n)

let timed f () =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let child (w : Workloads.t) ~seed ~smoke ~traced =
  let shape = shape_of w ~smoke in
  let members =
    if traced then begin
      let t0 = now () in
      let inputs = Workloads.generate shape ~seed in
      let setup_s = now () -. t0 in
      let r =
        Layers.run shape inputs ~timer:now ~cap:(prefix_cap ~smoke)
          ~scale:(if smoke then 0.01 else 1.) ~gen_s:setup_s
      in
      [
        ("wall_s", num r.Layers.wall_s);
        ("xfields", fields_to_json (fields_of r.Layers.xcheck));
        ("layers", J.Obj (List.map (fun (k, v) -> (k, num v)) r.Layers.layers));
      ]
    end
    else begin
      let probe = Probe.create () in
      let inputs = Probe.during probe (fun () -> Workloads.generate shape ~seed) in
      let setup = !Probe.last in
      let cpu0 = cpu_s () in
      let wall_s, (o : Workloads.outcome) =
        Probe.during probe (fun () -> Workloads.run shape inputs ~seed ~timer:now)
      in
      let run = !Probe.last in
      let cpu = cpu_s () -. cpu0 in
      [
        ("setup_s", num setup.Probe.wall_s);
        ("setup_ref_s", num (Probe.ref_seconds setup));
        ("wall_s", num wall_s);
        ("run_ref_s", num (Probe.ref_seconds run));
        ("sweep_ms", num (1e3 *. Probe.mean_sweep_s run));
        ("cpu_s", num cpu);
        ("sim_s", num o.Workloads.sim_s);
        (* less the probe's buffer, which every child holds *)
        ("peak_rss_mb", num (peak_rss_mb () -. (Probe.bytes /. 1048576.)));
        ("ops", int o.Workloads.ops);
        ("dropped", int o.Workloads.dropped);
        ("oracle_violations", int o.Workloads.oracle_violations);
        ("safety", int o.Workloads.safety);
        ("attempted", int o.Workloads.attempted);
        ("failed", int o.Workloads.failed);
        ( "fields",
          match o.Workloads.doc with Some d -> fields_to_json (fields_of d) | None -> J.Null );
        ("xfields", fields_to_json (fields_of o.Workloads.xcheck));
        ("notes", J.Obj (List.map (fun (k, v) -> (k, num v)) o.Workloads.notes));
      ]
    end
  in
  print_endline (J.to_string (J.Obj members))

(* --- parent ------------------------------------------------------------ *)

exception Child_failed of string

(* The child in flight: a parent that is told to stop takes it down too and
   waits for it, so no run outlives the benchmark. *)
let in_flight = ref None

let stop_with_child _signal =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !in_flight;
  exit 2

let spawn (w : Workloads.t) ~seed ~smoke ~traced =
  let args =
    [ "--child"; "--workload"; w.Workloads.name; "--seed"; string_of_int seed ]
    @ (if smoke then [ "--smoke" ] else [])
    @ if traced then [ "--trace"; "1" ] else []
  in
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  in_flight := Some (Unix.process_in_pid ic);
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  in_flight := None;
  match status with
  | Unix.WEXITED 0 -> (
    let last = List.nth_opt (List.rev (String.split_on_char '\n' (String.trim out))) 0 in
    match Option.map J.parse last with
    | Some (Ok j) -> j
    | Some (Error e) -> raise (Child_failed ("unparsable child output: " ^ e))
    | None -> raise (Child_failed "child printed nothing"))
  | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    raise (Child_failed (Printf.sprintf "%s child exited with status %d" w.Workloads.name n))

let get k j =
  match J.member k j with Some v -> v | None -> raise (Child_failed ("child result lacks " ^ k))

let getf k j = match get k j with J.Num x -> x | _ -> raise (Child_failed (k ^ " is not a number"))
let geti k j = int_of_float (getf k j)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Times are in reference seconds (see probe.ml). *)
let end_to_end =
  [
    ("sim_s_per_ref_s", "sim-s/ref-s", fun r -> getf "sim_s" r /. getf "run_ref_s" r);
    ("setup_s", "s", getf "setup_ref_s");
    ("peak_rss_mb", "MB", getf "peak_rss_mb");
  ]

(* The same times in wall seconds, and the probe they were converted with:
   printed and kept for [--out], but not metrics. *)
let as_measured =
  [
    ("sim_s_per_wall_s", "sim-s/wall-s", fun r -> getf "sim_s" r /. getf "wall_s" r);
    ("setup_wall_s", "s", getf "setup_s");
    ("sweep_ms", "ms", getf "sweep_ms");
  ]

type report = {
  mutable failures : string list;  (** output checks that failed, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * string * float * string) list;
      (** workload, name, value, unit; newest first *)
  mutable docs : (string * J.t) list;  (** per-workload detail for [--out] *)
}

let fail rep msg = rep.failures <- msg :: rep.failures

let expected_path (w : Workloads.t) ~smoke =
  Filename.concat "perfbench/expected"
    (w.Workloads.name ^ if smoke then ".smoke.json" else ".json")

(* Output checks shared by every untraced child: the oracle and the campaign
   safety monitors are clean, repeats agree with the first, and the first
   agrees with the committed digest when it was made at this seed. *)
let check_untraced rep (w : Workloads.t) ~seed ~smoke ~bless runs =
  let name = w.Workloads.name in
  List.iteri
    (fun i r ->
      if geti "oracle_violations" r > 0 then
        fail rep (Printf.sprintf "%s run %d: %d oracle violations" name i (geti "oracle_violations" r));
      if geti "safety" r > 0 then
        fail rep (Printf.sprintf "%s run %d: %d schedules with safety findings" name i (geti "safety" r));
      rep.attempted <- rep.attempted + geti "attempted" r;
      rep.failed <- rep.failed + geti "failed" r)
    runs;
  match List.map (fun r -> get "fields" r) runs with
  | J.Null :: _ | [] -> ()
  | first :: rest ->
    let first = fields_of_json first in
    List.iteri
      (fun i f ->
        match first_difference first (fields_of_json f) with
        | Some p -> fail rep (Printf.sprintf "%s: repeat %d differs from repeat 0 at %s" name (i + 1) p)
        | None -> ())
      rest;
    let path = expected_path w ~smoke in
    if bless then
      (* one field per line, so a re-blessed digest diffs field by field *)
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc "{\"seed\": %d, \"fields\": [\n%s\n]}\n" seed
            (String.concat ",\n" (List.map (fun f -> J.to_string (field_to_json f)) first)))
    else if Sys.file_exists path then begin
      let expected =
        match J.parse (In_channel.with_open_text path In_channel.input_all) with
        | Ok j -> j
        | Error e -> failwith (path ^ ": " ^ e)
      in
      if geti "seed" expected = seed then
        match first_difference (fields_of_json (get "fields" expected)) first with
        | Some p -> fail rep (Printf.sprintf "%s: simulated output differs from %s at %s" name path p)
        | None -> ()
    end

(* The workload-specific figures a child reported, printed unless quiet and
   kept for [--out]. *)
let notes ~quiet (w : Workloads.t) r =
  let notes = get "notes" r in
  (match notes with
  | J.Obj notes when not quiet ->
    List.iter
      (function k, J.Num v -> Printf.printf "%-14s %-34s %.6g\n" w.Workloads.name k v | _ -> ())
      notes
  | _ -> ());
  ("notes", notes)

let measure rep (w : Workloads.t) ~seed ~repeats ~seconds ~bless ~quiet =
  let t0 = now () in
  (* With a time budget, repeat at least three times, and after that only
     while a repeat as long as the longest so far still fits. *)
  let more n longest =
    match seconds with
    | Some s -> n < 3 || (now () -. t0 +. longest <= s && n < 99)
    | None -> n < repeats
  in
  let rec loop acc n longest =
    if more n longest then begin
      let d, r = timed (fun () -> spawn w ~seed ~smoke:false ~traced:false) () in
      loop (r :: acc) (n + 1) (Float.max longest d)
    end
    else List.rev acc
  in
  let runs = loop [] 0 0. in
  check_untraced rep w ~seed ~smoke:false ~bless runs;
  let row ~metric (name, unit, f) =
    let xs = List.map f runs in
    let m = median xs and lo = List.fold_left Float.min Float.infinity xs in
    let hi = List.fold_left Float.max Float.neg_infinity xs in
    if not quiet then
      Printf.printf "%-14s %-34s %.6g %s (median of %d; min %.6g, max %.6g)\n" w.Workloads.name
        name m unit (List.length xs) lo hi;
    if metric then rep.metrics <- (w.Workloads.name, name, m, unit) :: rep.metrics;
    (name, J.Obj [ ("median", num m); ("unit", J.Str unit); ("values", J.Arr (List.map num xs)) ])
  in
  let rows = List.map (row ~metric:true) end_to_end in
  let rows = rows @ List.map (row ~metric:false) as_measured in
  rep.docs <-
    (w.Workloads.name, J.Obj [ ("seed", int seed); ("end_to_end", J.Obj rows); notes ~quiet w (List.hd runs) ])
    :: rep.docs

(* One untraced reference run (for the overhead ratio, the CPU ratio and
   the equality check), then the traced run, whose oracle and trace checker
   must both come out clean. *)
let measure_layers rep (w : Workloads.t) ~seed ~smoke ~bless ~quiet =
  let name = w.Workloads.name in
  let reference = spawn w ~seed ~smoke ~traced:false in
  check_untraced rep w ~seed ~smoke ~bless [ reference ];
  let traced = spawn w ~seed ~smoke ~traced:true in
  (match first_difference (fields_of_json (get "xfields" reference)) (fields_of_json (get "xfields" traced)) with
  | Some p -> fail rep (Printf.sprintf "%s: the traced run's outputs differ from the untraced run's at %s" name p)
  | None -> ());
  let ref_wall = getf "wall_s" reference in
  let derived =
    [
      ("traced_run.overhead_x", getf "wall_s" traced /. ref_wall);
      ("shard.cpu_util", getf "cpu_s" reference /. ref_wall);
    ]
  in
  let layers = match get "layers" traced with J.Obj l -> l | _ -> [] in
  let value k =
    match (List.assoc_opt k derived, List.assoc_opt k layers) with
    | Some v, _ | None, Some (J.Num v) -> v
    | None, _ -> raise (Child_failed (name ^ ": traced run lacks " ^ k))
  in
  List.iter
    (fun k ->
      if value k > 0. then fail rep (Printf.sprintf "%s: traced run has %s = %g" name k (value k)))
    [ "trace.checker_violations"; "oracle.violations" ];
  let rows =
    List.map
      (fun (k, unit) ->
        let v = value k in
        if not quiet then Printf.printf "%-14s %-34s %.6g %s\n" name k v unit;
        rep.metrics <- (name, k, v, unit) :: rep.metrics;
        (k, J.Obj [ ("value", num v); ("unit", J.Str unit) ]))
      Layers.metrics
  in
  rep.docs <- (name, J.Obj [ ("seed", int seed); ("per_layer", J.Obj rows); notes ~quiet w reference ]) :: rep.docs

let () =
  let workload = ref "" and seed = ref None and repeats = ref 5 and seconds = ref None in
  let traced = ref false and out = ref "" and smoke = ref false and bless = ref false in
  let is_child = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload (default: the four benchmark workloads)");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N generator seed (default: the workload's)");
      ("--repeats", Arg.Set_int repeats, "R untraced repeats per workload (default 5)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S repeat until S seconds are spent (at least 3 repeats)");
      ("--trace", Arg.Int (fun n -> traced := n <> 0), "0|1 1: the traced run and per-layer metrics instead");
      ("--out", Arg.Set_string out, "FILE also write every value as one JSON document");
      ("--smoke", Arg.Set smoke, " the benchmark workloads and split_n10k_k8 at ~1% size, reference and traced run, quiet unless a check fails");
      ("--bless", Arg.Set bless, " record the simulated-output digests in perfbench/expected/");
      ("--child", Arg.Set is_child, "");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [options]";
  let workloads =
    match !workload with
    | "" -> if !smoke then Workloads.all @ [ Workloads.split ] else Workloads.all
    | name -> (
      match Workloads.find name with
      | Some w -> [ w ]
      | None ->
        prerr_endline ("unknown workload " ^ name);
        exit 2)
  in
  let seed_of (w : Workloads.t) = Option.value !seed ~default:w.Workloads.seed in
  if !is_child then child (List.hd workloads) ~seed:(seed_of (List.hd workloads)) ~smoke:!smoke ~traced:!traced
  else begin
    List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle stop_with_child)) [ Sys.sigterm; Sys.sigint ];
    let rep = { failures = []; attempted = 0; failed = 0; metrics = []; docs = [] } in
    let quiet = !smoke in
    (try
       List.iter
         (fun w ->
           let seed = seed_of w in
           if !traced || !smoke then measure_layers rep w ~seed ~smoke:!smoke ~bless:!bless ~quiet
           else measure rep w ~seed ~repeats:!repeats ~seconds:!seconds ~bless:!bless ~quiet)
         workloads
     with Child_failed msg ->
       prerr_endline ("benchmark aborted: " ^ msg);
       exit 3);
    let failures = List.rev rep.failures in
    List.iter (fun f -> prerr_endline ("CHECK FAILED: " ^ f)) failures;
    if !out <> "" then
      Out_channel.with_open_text !out (fun oc ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ( "host",
                      J.Obj
                        [
                          ("nproc", int (Domain.recommended_domain_count ()));
                          ("ocaml", J.Str Sys.ocaml_version);
                        ] );
                    ("correct", J.Bool (failures = []));
                    ("workloads", J.Obj (List.rev rep.docs));
                  ])
            ^ "\n"));
    if not quiet then begin
      (* several workloads: each metric is prefixed with its workload *)
      let key =
        match workloads with [ _ ] -> fun _ k -> k | _ -> fun w k -> w ^ "." ^ k
      in
      let metrics =
        List.rev_map
          (fun (w, k, v, unit) -> (key w k, J.Obj [ ("value", num v); ("unit", J.Str unit) ]))
          rep.metrics
      in
      print_endline
        (J.to_string
           (J.Obj
              [
                ("correct", J.Bool (failures = []));
                ("attempted", int rep.attempted);
                ("failed", int rep.failed);
                ("metrics", J.Obj metrics);
              ]))
    end;
    if failures <> [] then exit 1
  end
