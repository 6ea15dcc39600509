type t = { trace : Workload.Trace.t; fileset : Workload.Fileset.t }

let read_rate = Analytic.Params.v_lan.Analytic.Params.read_rate
let write_rate = Analytic.Params.v_lan.Analytic.Params.write_rate

let fileset ?(clients = 1) () =
  Workload.Fileset.create ~clients ~installed:20 ~shared:10 ~private_per_client:30
    ~temporary_per_client:10

let poisson ?(seed = 11L) ?(clients = 1) ~duration () =
  let fileset = fileset ~clients () in
  let rng = Prng.Splitmix.create ~seed in
  let trace =
    Workload.Poisson_gen.generate ~rng ~fileset ~mix:Workload.Mix.v_default ~read_rate
      ~write_rate ~temp_read_rate:0.05 ~temp_write_rate:0.1 ~duration ()
  in
  { trace; fileset }

let shared_heavy ?(seed = 29L) ?(clients = 4) ~duration () =
  let fileset =
    Workload.Fileset.create ~clients ~installed:5 ~shared:4 ~private_per_client:10
      ~temporary_per_client:0
  in
  let mix =
    {
      Workload.Mix.p_installed_read = 0.2;
      p_shared_read = 0.6;
      p_shared_write = 0.8;
      zipf_installed = 0.8;
      zipf_shared = 0.5;
    }
  in
  let rng = Prng.Splitmix.create ~seed in
  let trace =
    Workload.Poisson_gen.generate ~rng ~fileset ~mix ~read_rate ~write_rate ~duration ()
  in
  { trace; fileset }

let bursty ?(seed = 13L) ?(clients = 1) ~duration () =
  let fileset = fileset ~clients () in
  let rng = Prng.Splitmix.create ~seed in
  let trace =
    Workload.Bursty_gen.generate ~rng ~fileset ~mix:Workload.Mix.v_default ~read_rate ~write_rate
      ~duration ()
  in
  { trace; fileset }

type kind = Poisson | Bursty | Shared_heavy

(* One row a kind: its [-w] name and its generator. *)
let kinds =
  [
    (Poisson, "poisson", poisson);
    (Bursty, "bursty", bursty);
    (Shared_heavy, "shared-heavy", shared_heavy);
  ]

let row kind = List.find (fun (k, _, _) -> k == kind) kinds

let kind_name kind =
  let _, name, _ = row kind in
  name

let kind_of_name name =
  match List.find_opt (fun (_, n, _) -> String.equal n name) kinds with
  | Some (kind, _, _) -> kind
  | None ->
    let names = List.map (fun (_, n, _) -> n) kinds in
    failwith (Printf.sprintf "unknown workload %S (%s)" name (String.concat "|" names))

let generate kind ~seed ~clients ~duration =
  let _, _, gen = row kind in
  (gen ~seed ~clients ~duration ()).trace
