open Simtime

(* One Poisson stream of operations for one client, in arrival order: each
   arrival draws its gap, then [add] draws the op's file. *)
let stream ~rng ~duration ~rate add =
  if rate > 0. then begin
    let mean_gap = 1. /. rate in
    let horizon = Time.Span.to_sec duration in
    let rec arrivals t =
      let t = t +. Prng.Dist.exponential rng ~mean:mean_gap in
      if not (t > horizon) then begin
        add (Time.of_sec t);
        arrivals t
      end
    in
    arrivals 0.
  end

let generate ~rng ~fileset ~mix ~read_rate ~write_rate ?(temp_read_rate = 0.)
    ?(temp_write_rate = 0.) ~duration () =
  Mix.validate mix;
  if read_rate < 0. || write_rate < 0. || temp_read_rate < 0. || temp_write_rate < 0. then
    invalid_arg "Poisson_gen.generate: negative rate";
  let b = Trace.Builder.create () in
  for client = 0 to Fileset.clients fileset - 1 do
    let rng = Prng.Splitmix.split rng in
    let add kind ~temporary file at = Trace.Builder.add b ~at ~client ~kind ~file ~temporary in
    stream ~rng ~duration ~rate:read_rate (fun at ->
        add Op.Read ~temporary:false (Mix.pick_read mix rng fileset ~client) at);
    stream ~rng ~duration ~rate:write_rate (fun at ->
        add Op.Write ~temporary:false (Mix.pick_write mix rng fileset ~client) at);
    let temps = Fileset.temporary_of fileset client in
    let temp_stream rate kind =
      stream ~rng ~duration ~rate (fun at ->
          if Array.length temps = 0 then
            (* No temporary files configured: degrade to a private op. *)
            add kind ~temporary:false (Mix.pick_write mix rng fileset ~client) at
          else
            add kind ~temporary:true temps.(Prng.Splitmix.int rng ~bound:(Array.length temps)) at)
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
