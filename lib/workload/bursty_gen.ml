open Simtime

(* The burst shape the interface describes. *)
let ops_per_burst = 20.
let gap_sec = 0.05
let working_set = 8
let pareto_shape = 2.5

let generate ~rng ~fileset ~mix ~read_rate ~write_rate ~duration () =
  let pick = Mix.sampler mix fileset in
  let total_rate = read_rate +. write_rate in
  if total_rate <= 0. then invalid_arg "Bursty_gen.generate: need a positive total rate";
  (* A burst of n operations advances time by n*gap (each op is followed by
     one gap), so the long-run rate is m / (think + m*gap); solve for the
     think mean. *)
  let mean_think = (ops_per_burst /. total_rate) -. (ops_per_burst *. gap_sec) in
  if mean_think <= 0. then
    invalid_arg "Bursty_gen.generate: requested rate unattainable with this burst shape";
  (* Pareto(shape, scale) has mean scale*shape/(shape-1). *)
  let pareto_scale = mean_think *. (pareto_shape -. 1.) /. pareto_shape in
  let write_fraction = write_rate /. total_rate in
  let horizon = Time.Span.to_sec duration in
  let b = Trace.Builder.create () in
  for client = 0 to Fileset.clients fileset - 1 do
    let rng = Prng.Splitmix.split rng in
    let p_stop = 1. /. ops_per_burst in
    (* Loops over local float refs keep the instant unboxed. *)
    let t = ref 0. and live = ref true in
    while !live do
      t := !t +. Prng.Dist.pareto rng ~shape:pareto_shape ~scale:pareto_scale;
      if !t > horizon then live := false
      else begin
        let set = Array.init working_set (fun _ -> Mix.pick_read pick rng ~client) in
        let remaining = ref (Prng.Dist.geometric rng ~p:p_stop) in
        while !remaining > 0 && not (!t > horizon) do
          let at = Time.of_sec !t in
          (if Prng.Splitmix.bool rng ~p:write_fraction then
             Trace.Builder.add b ~at ~client ~kind:Op.Write ~file:(Mix.pick_write pick rng ~client)
               ~temporary:false
           else
             Trace.Builder.add b ~at ~client ~kind:Op.Read
               ~file:set.(Prng.Splitmix.int rng ~bound:working_set) ~temporary:false);
          t := !t +. gap_sec;
          decr remaining
        done
      end
    done
  done;
  Trace.Builder.finish b
