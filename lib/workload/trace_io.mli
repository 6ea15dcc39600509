(** Text encoding of traces, one operation per line:

    {v <microseconds> <client> <R|W> <file-id> [T] v}

    The trailing [T] marks temporary-file operations.  Lines starting with
    [#] and blank lines are ignored on input, so traces can be annotated. *)

val print : Trace.t -> string

val parse : string -> (Trace.t, string) result
(** The error names the first offending line (1-based) and why it failed,
    a client or file id outside {!Trace}'s packed fields included. *)

val read : in_channel -> (Trace.t, string) result
(** {!parse} over the channel's lines, read one at a time into the trace
    with no copy of the whole text. *)
