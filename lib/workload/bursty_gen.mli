(** Bursty workload generation — the shape of the paper's measured trace.

    The V trace was captured during a recompile: accesses come in tight
    bursts (a compiler run touching headers, sources and binaries back to
    back) separated by long think times.  The paper observes this is the
    only qualitative departure from the Poisson assumption, and that it
    makes short lease terms look {e better} (a sharper knee at a lower
    term), because a burst amortises one extension over many reads.

    Model: each client alternates Pareto-distributed think times (shape
    2.5: heavy-tailed, with a finite variance so long-run rates converge)
    with bursts of geometrically many operations (20 on average) spaced
    50 ms apart.  Each burst works over a working set of 8 files sampled at
    burst start (locality), and each operation is a write with probability
    W/(R+W).  Think-time means are derived so the long-run server-visible
    rates match the requested R and W exactly in expectation. *)

val generate :
  rng:Prng.Splitmix.t ->
  fileset:Fileset.t ->
  mix:Mix.t ->
  read_rate:float ->
  write_rate:float ->
  duration:Simtime.Time.Span.t ->
  unit ->
  Trace.t
(** [read_rate +. write_rate] must be positive and small enough that the
    burst shape can reach it (the mean think time must come out
    positive). *)
