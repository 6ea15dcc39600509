open Simtime

(* One Poisson stream of operations for one client, in arrival order: each
   arrival draws its gap, then [add] draws the op's file.  A loop over a
   local float ref keeps the instant unboxed. *)
let stream ~rng ~duration ~rate add =
  if rate > 0. then begin
    let mean_gap = 1. /. rate in
    let horizon = Time.Span.to_sec duration in
    let t = ref 0. and live = ref true in
    while !live do
      t := !t +. Prng.Dist.exponential rng ~mean:mean_gap;
      if !t > horizon then live := false else add (Time.of_sec !t)
    done
  end

let generate ~rng ~fileset ~mix ~read_rate ~write_rate ?(temp_read_rate = 0.)
    ?(temp_write_rate = 0.) ~duration () =
  let pick = Mix.sampler mix fileset in
  if read_rate < 0. || write_rate < 0. || temp_read_rate < 0. || temp_write_rate < 0. then
    invalid_arg "Poisson_gen.generate: negative rate";
  let b = Trace.Builder.create () in
  for client = 0 to Fileset.clients fileset - 1 do
    let rng = Prng.Splitmix.split rng in
    let add kind ~temporary file at = Trace.Builder.add b ~at ~client ~kind ~file ~temporary in
    stream ~rng ~duration ~rate:read_rate (fun at ->
        add Op.Read ~temporary:false (Mix.pick_read pick rng ~client) at);
    stream ~rng ~duration ~rate:write_rate (fun at ->
        add Op.Write ~temporary:false (Mix.pick_write pick rng ~client) at);
    let temp_stream rate kind =
      stream ~rng ~duration ~rate (fun at ->
          let temps = Fileset.temporary_per_client fileset in
          if temps = 0 then
            (* No temporary files configured: degrade to a private op. *)
            add kind ~temporary:false (Mix.pick_write pick rng ~client) at
          else
            add kind ~temporary:true
              (Fileset.temporary_id fileset ~client (Prng.Splitmix.int rng ~bound:temps))
              at)
    in
    (* The seeded traces were first drawn as the list literal
       [reads; writes; temp reads; temp writes], whose elements OCaml
       evaluates right to left: the temp writes draw from the RNG before
       the temp reads but sit after them, which decides ties in the sort. *)
    let temp_writes = Trace.Builder.length b in
    temp_stream temp_write_rate Op.Write;
    let temp_reads = Trace.Builder.length b in
    temp_stream temp_read_rate Op.Read;
    Trace.Builder.rotate b ~from:temp_writes ~mid:temp_reads
  done;
  Trace.Builder.finish b
