(** Pluggable event sinks.

    A sink is a record of closures so emitters need no functor plumbing.
    The [enabled] flag lets hot paths skip building the event value
    entirely — call sites must guard:

    {[ if Trace.Sink.enabled tracer then Trace.Sink.emit tracer at (Event.Cache_hit ...) ]}

    because OCaml evaluates the payload argument eagerly; with the guard,
    the {!null} sink costs one load and one branch per potential event.

    Sinks buffer without synchronization ({!buffer} and the [jsonl]
    writer's channel): one domain owns a sink for the
    duration of a run.  A parallel harness gives each sub-simulation a
    private buffer and interleaves the captured streams after the domains
    join — see [Shard.Deploy.run_split]. *)

type t = { enabled : bool; push : Event.t -> unit; flush : unit -> unit }

val null : t
(** Discards everything; [enabled] is [false]. *)

val enabled : t -> bool

val emit : t -> float -> Event.kind -> unit
(** [emit t at ev] pushes [{at; ev}] when [t] is enabled.  Callers on hot
    paths should still guard with {!enabled} to avoid allocating [ev]. *)

val flush : t -> unit

val tee : t list -> t
(** Broadcasts to every enabled sink; disabled when all are. *)

val observe : enter:(unit -> unit) -> leave:(unit -> unit) -> t -> t
(** Bracket every push with [enter]/[leave] — the profiler wraps the run's
    sink this way to account emission as a nested cost-center span.  A
    disabled sink is returned untouched. *)

(** {1 Unbounded buffer} — keeps everything, for tests and in-process
    consumers (checker, lifecycle, Chrome export). *)

type buffer

val buffer : unit -> buffer
val buffer_sink : buffer -> t
val buffer_contents : buffer -> Event.t list

(** {1 JSONL writer} — one {!Codec.encode}d line per event. *)

val jsonl : out_channel -> t

(** {1 JSONL reader} *)

val replay : ?on_error:(int -> string -> unit) -> in_channel -> t -> int
(** [replay ic sink] decodes [ic] one line at a time and pushes each event
    into [sink], skipping blank lines, so a trace of any length is read in
    the memory of one line.  Returns the number of lines that did not
    decode; [on_error line why] hears of each, numbered from 1. *)
