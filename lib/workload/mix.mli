(** How operations are spread across file classes — the knobs that shape
    sharing and the installed-file skew. *)

type t = {
  p_installed_read : float;  (** fraction of reads to installed files *)
  p_shared_read : float;  (** fraction of reads to shared files *)
  p_shared_write : float;  (** fraction of writes to shared files (rest private) *)
  zipf_installed : float;  (** popularity skew within the installed class *)
  zipf_shared : float;
}

val v_default : t
(** Matches the V-trace composition the paper reports: installed files take
    almost half of all reads and none of the writes. *)

val validate : t -> unit
(** Raises [Invalid_argument] when any probability is outside [0, 1] or the
    read fractions sum past 1. *)

(** A mix bound to one fileset, with one Zipf table per file class, built
    once per generated trace. *)
type sampler

val sampler : t -> Fileset.t -> sampler
(** Raises [Invalid_argument] as {!validate}. *)

val pick_read : sampler -> Prng.Splitmix.t -> client:int -> Vstore.File_id.t
val pick_write : sampler -> Prng.Splitmix.t -> client:int -> Vstore.File_id.t
(** One class draw, then one file draw within the class.  Classes that turn
    out to be empty fall back to the client's private files; a fileset with
    no private files for the client and no non-empty target class raises
    [Invalid_argument].  A pick allocates nothing. *)
