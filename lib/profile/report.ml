(* The `leases-profile/1` report: a deterministic JSON rendering of a
   recorder, its parser (profile_view reads reports back), and the
   flamegraph exports (speedscope and chrome://tracing).

   Determinism: centers appear in [Center.all] order with every center
   present (zeros included), samples in capture order, numbers through
   [Trace.Json]'s canonical formatter.  Two runs with the same seed and the
   same injected timer/words hooks render byte-identical strings. *)

module Json = Trace.Json

type center_row = {
  center : string;
  hits : int;
  wall_s : float;
  wall_pct : float;
  minor_words : float;
  major_words : float;
}

type sample = {
  t : float;
  queue_depth : int;
  cancel_ratio : float;
  events : int;
  events_per_sim_s : float;
}

type t = {
  interval_s : float;
  events_total : int;
  measured_wall_s : float;
  wall_s_total : float;
  minor_words_total : float;
  major_words_total : float;
  centers : center_row list;
  samples : sample list;
}

let schema = "leases-profile/1"

let of_recorder r =
  let wall_total = Recorder.wall_total_s r in
  let centers =
    List.map
      (fun (row : Recorder.row) ->
        {
          center = Center.name row.Recorder.r_center;
          hits = row.Recorder.r_hits;
          wall_s = row.Recorder.r_wall_s;
          wall_pct =
            (if wall_total <= 0. then 0. else 100. *. row.Recorder.r_wall_s /. wall_total);
          minor_words = row.Recorder.r_minor_words;
          major_words = row.Recorder.r_major_words;
        })
      (Recorder.rows r)
  in
  let samples =
    List.map
      (fun (s : Recorder.sample) ->
        {
          t = s.Recorder.s_t;
          queue_depth = s.Recorder.s_queue_depth;
          cancel_ratio = s.Recorder.s_cancel_ratio;
          events = s.Recorder.s_events;
          events_per_sim_s = s.Recorder.s_events_per_sim_s;
        })
      (Recorder.samples r)
  in
  {
    interval_s = Recorder.interval_s r;
    events_total = Recorder.events_total r;
    measured_wall_s = Recorder.measured_wall_s r;
    wall_s_total = wall_total;
    minor_words_total = Recorder.minor_words_total r;
    major_words_total = Recorder.major_words_total r;
    centers;
    samples;
  }

let num v = Json.Num v
let int i = Json.Num (float_of_int i)

let to_json report =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("interval_s", num report.interval_s);
      ("events_total", int report.events_total);
      ("measured_wall_s", num report.measured_wall_s);
      ("wall_s_total", num report.wall_s_total);
      ("minor_words_total", num report.minor_words_total);
      ("major_words_total", num report.major_words_total);
      ( "centers",
        Json.Arr
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("center", Json.Str c.center);
                   ("hits", int c.hits);
                   ("wall_s", num c.wall_s);
                   ("wall_pct", num c.wall_pct);
                   ("minor_words", num c.minor_words);
                   ("major_words", num c.major_words);
                 ])
             report.centers) );
      ( "engine",
        Json.Obj
          [
            ( "samples",
              Json.Arr
                (List.map
                   (fun s ->
                     Json.Obj
                       [
                         ("t", num s.t);
                         ("queue_depth", int s.queue_depth);
                         ("cancel_ratio", num s.cancel_ratio);
                         ("events", int s.events);
                         ("events_per_sim_s", num s.events_per_sim_s);
                       ])
                   report.samples) );
          ] );
    ]

let to_json_string report =
  let b = Buffer.create 4096 in
  Json.to_buffer b (to_json report);
  Buffer.add_char b '\n';
  Buffer.contents b

(* --- parsing ---------------------------------------------------------- *)

exception Bad of string

let get_field obj key =
  match Json.member key obj with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" key))

let get_num obj key =
  match get_field obj key with
  | Json.Num v -> v
  | _ -> raise (Bad (Printf.sprintf "field %S is not a number" key))

let get_int obj key = int_of_float (get_num obj key)

let get_str obj key =
  match get_field obj key with
  | Json.Str s -> s
  | _ -> raise (Bad (Printf.sprintf "field %S is not a string" key))

let get_arr obj key =
  match get_field obj key with
  | Json.Arr items -> items
  | _ -> raise (Bad (Printf.sprintf "field %S is not an array" key))

let of_json_string text =
  match Json.parse (String.trim text) with
  | Error why -> Error (Printf.sprintf "profile report: %s" why)
  | Ok doc -> (
    try
      (match Json.member "schema" doc with
      | Some (Json.Str s) when s = schema -> ()
      | Some (Json.Str s) -> raise (Bad (Printf.sprintf "unsupported schema %S" s))
      | _ -> raise (Bad "missing schema"));
      let centers =
        List.map
          (fun c ->
            {
              center = get_str c "center";
              hits = get_int c "hits";
              wall_s = get_num c "wall_s";
              wall_pct = get_num c "wall_pct";
              minor_words = get_num c "minor_words";
              major_words = get_num c "major_words";
            })
          (get_arr doc "centers")
      in
      let samples =
        match Json.member "engine" doc with
        | Some engine ->
          List.map
            (fun s ->
              {
                t = get_num s "t";
                queue_depth = get_int s "queue_depth";
                cancel_ratio = get_num s "cancel_ratio";
                events = get_int s "events";
                events_per_sim_s = get_num s "events_per_sim_s";
              })
            (get_arr engine "samples")
        | None -> []
      in
      Ok
        {
          interval_s = get_num doc "interval_s";
          events_total = get_int doc "events_total";
          measured_wall_s = get_num doc "measured_wall_s";
          wall_s_total = get_num doc "wall_s_total";
          minor_words_total = get_num doc "minor_words_total";
          major_words_total = get_num doc "major_words_total";
          centers;
          samples;
        }
    with Bad why -> Error (Printf.sprintf "profile report: %s" why))

(* --- hotspot table ---------------------------------------------------- *)

let by_wall report =
  List.stable_sort (fun a b -> Float.compare b.wall_s a.wall_s) report.centers

let hotspot_table ?(top = 10) report =
  let b = Buffer.create 1024 in
  Printf.bprintf b "== profile: %d events, %.3f s measured wall, %.0f minor + %.0f major words ==\n"
    report.events_total report.measured_wall_s report.minor_words_total
    report.major_words_total;
  Printf.bprintf b "%-18s %8s %9s %7s %14s %12s\n" "center" "hits" "wall-s" "wall%" "minor-words"
    "major-words";
  let shown = ref 0 in
  List.iter
    (fun c ->
      if !shown < top && (c.wall_s > 0. || c.hits > 0) then begin
        incr shown;
        Printf.bprintf b "%-18s %8d %9.4f %6.1f%% %14.0f %12.0f\n" c.center c.hits c.wall_s
          c.wall_pct c.minor_words c.major_words
      end)
    (by_wall report);
  (match report.samples with
  | [] -> ()
  | samples ->
    let n = List.length samples in
    let last = List.nth samples (n - 1) in
    let max_depth = List.fold_left (fun acc s -> Stdlib.max acc s.queue_depth) 0 samples in
    Printf.bprintf b
      "engine: %d health samples (every %g sim-s); peak queue depth %d; final cancel ratio \
       %.2f, %.0f events/sim-s\n"
      n report.interval_s max_depth last.cancel_ratio last.events_per_sim_s);
  Buffer.contents b

(* --- flamegraph exports ----------------------------------------------- *)

(* Speedscope "sampled" profile: one frame per center, one single-frame
   sample weighted by the center's wall seconds.  Flat, but that is the
   truth of the measurement — slices are self-time only. *)
let to_speedscope ?(name = "leases profile") report =
  let nonzero = List.filter (fun c -> c.wall_s > 0.) (by_wall report) in
  let frames = List.map (fun c -> Json.Obj [ ("name", Json.Str c.center) ]) nonzero in
  let samples = List.mapi (fun i _ -> Json.Arr [ int i ]) nonzero in
  let weights = List.map (fun c -> num c.wall_s) nonzero in
  let doc =
    Json.Obj
      [
        ("$schema", Json.Str "https://www.speedscope.app/file-format-schema.json");
        ("shared", Json.Obj [ ("frames", Json.Arr frames) ]);
        ( "profiles",
          Json.Arr
            [
              Json.Obj
                [
                  ("type", Json.Str "sampled");
                  ("name", Json.Str name);
                  ("unit", Json.Str "seconds");
                  ("startValue", num 0.);
                  ("endValue", num report.wall_s_total);
                  ("samples", Json.Arr samples);
                  ("weights", Json.Arr weights);
                ];
            ] );
        ("name", Json.Str name);
        ("activeProfileIndex", num 0.);
        ("exporter", Json.Str "leases-profile");
      ]
  in
  let b = Buffer.create 4096 in
  Json.to_buffer b doc;
  Buffer.add_char b '\n';
  Buffer.contents b

(* chrome://tracing / Perfetto: per-center "X" spans laid end to end on one
   track (a flame chart of the aggregate), plus counter tracks for the
   engine-health series over sim time. *)
let to_chrome report =
  let acc = ref [] in
  let push j = acc := j :: !acc in
  let cursor = ref 0. in
  List.iter
    (fun c ->
      if c.wall_s > 0. then begin
        push
          (Json.Obj
             [
               ("name", Json.Str c.center);
               ("ph", Json.Str "X");
               ("pid", int 0);
               ("tid", int 0);
               ("ts", num (!cursor *. 1e6));
               ("dur", num (c.wall_s *. 1e6));
               ( "args",
                 Json.Obj
                   [
                     ("hits", int c.hits);
                     ("minor_words", num c.minor_words);
                     ("major_words", num c.major_words);
                     ("wall_pct", num c.wall_pct);
                   ] );
             ]);
        cursor := !cursor +. c.wall_s
      end)
    (by_wall report);
  List.iter
    (fun s ->
      let counter name values =
        push
          (Json.Obj
             [
               ("name", Json.Str name);
               ("ph", Json.Str "C");
               ("pid", int 1);
               ("ts", num (s.t *. 1e6));
               ("args", Json.Obj values);
             ])
      in
      counter "queue" [ ("depth", int s.queue_depth) ];
      counter "rates"
        [
          ("events_per_sim_s", num s.events_per_sim_s); ("cancel_ratio", num s.cancel_ratio);
        ])
    report.samples;
  let doc = Json.Obj [ ("traceEvents", Json.Arr (List.rev !acc)) ] in
  let b = Buffer.create 4096 in
  Json.to_buffer b doc;
  Buffer.add_char b '\n';
  Buffer.contents b
