type t = {
  p_installed_read : float;
  p_shared_read : float;
  p_shared_write : float;
  zipf_installed : float;
  zipf_shared : float;
}

let v_default =
  {
    p_installed_read = 0.48;
    p_shared_read = 0.12;
    p_shared_write = 0.25;
    zipf_installed = 0.8;
    zipf_shared = 0.8;
  }

let validate t =
  let probability name p =
    if p < 0. || p > 1. then invalid_arg (Printf.sprintf "Mix: %s outside [0, 1]" name)
  in
  probability "p_installed_read" t.p_installed_read;
  probability "p_shared_read" t.p_shared_read;
  probability "p_shared_write" t.p_shared_write;
  if t.p_installed_read +. t.p_shared_read > 1. then
    invalid_arg "Mix: read fractions exceed 1";
  if t.zipf_installed < 0. || t.zipf_shared < 0. then invalid_arg "Mix: negative Zipf exponent"

type sampler = {
  mix : t;
  fileset : Fileset.t;
  installed_zipf : Prng.Dist.Zipf_table.t;
  shared_zipf : Prng.Dist.Zipf_table.t option;  (** [None] when no file is shared *)
}

let sampler t fileset =
  validate t;
  let table n s = Prng.Dist.Zipf_table.create ~n ~s in
  let shared = Fileset.shared fileset in
  {
    mix = t;
    fileset;
    installed_zipf = table (Fileset.installed fileset) t.zipf_installed;
    shared_zipf = (if shared = 0 then None else Some (table shared t.zipf_shared));
  }

let private_fallback s rng ~client =
  let own = Fileset.private_per_client s.fileset in
  if own = 0 then invalid_arg "Mix: no private files to fall back on"
  else Fileset.private_id s.fileset ~client (Prng.Splitmix.int rng ~bound:own)

let shared_pick s rng ~client =
  match s.shared_zipf with
  | Some zipf -> Fileset.shared_id s.fileset (Prng.Dist.Zipf_table.draw zipf rng)
  | None -> private_fallback s rng ~client

let pick_read s rng ~client =
  let u = Prng.Splitmix.float rng in
  if u < s.mix.p_installed_read then
    Fileset.installed_id s.fileset (Prng.Dist.Zipf_table.draw s.installed_zipf rng)
  else if u < s.mix.p_installed_read +. s.mix.p_shared_read then shared_pick s rng ~client
  else private_fallback s rng ~client

let pick_write s rng ~client =
  if Prng.Splitmix.float rng < s.mix.p_shared_write then shared_pick s rng ~client
  else private_fallback s rng ~client
