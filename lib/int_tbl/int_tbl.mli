(** Mutable tables keyed by non-negative ints: open addressing with linear
    probing over a dense key array.

    The simulator's keys (file, host and write ids) are small ints, so a
    table keeps its keys unboxed in one [int array] and its values in a
    parallel array.  A probe hashes the key with one multiply and a shift
    and then compares ints along a run of adjacent slots; there is no
    bucket list to chase and no call into the polymorphic hash or compare.
    The table stays at most half full, so a lookup is usually one or two
    probes.  Removal shifts the rest of the key's run back into the hole
    (backward-shift deletion), so there are no tombstones and a run never
    outgrows the keys in it.

    A table allocates its arrays on the first insert: a created table that
    is never written costs one small record.

    Iteration ([fold], [iter]) visits bindings in slot order, which depends
    on the keys' hashes and on the table's insertion history.  Use it only
    in an order-independent way: sums, minima, sets, sorted dumps, timer
    cancellations. *)

(** The table interface over an abstract key type, as the id modules
    export it ([File_id.Tbl], [Host_id.Tbl]).  Only the operations below
    exist; unlike [Hashtbl], a key is bound at most once. *)
module type S = sig
  type key
  type 'a t

  val create : int -> 'a t
  (** [create n]: an empty table sized for about [n] bindings once written. *)

  val find : 'a t -> key -> 'a
  (** Raises [Not_found] when the key is unbound. *)

  val find_opt : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool

  val find_or : 'a t -> key -> 'a -> 'a
  (** [find_or t k default] is [k]'s binding, or [default] when [k] is
      unbound: no exception handler and no option, so a hot lookup with a
      sentinel allocates nothing. *)

  val replace : 'a t -> key -> 'a -> unit
  (** Bind the key, replacing its binding if it has one. *)

  val add : 'a t -> key -> 'a -> unit
  (** Same as {!replace}: a table never holds two bindings for a key, so
      [add] does not shadow as [Hashtbl.add] does.  Use it where the key is
      known to be unbound. *)

  val remove : 'a t -> key -> unit
  (** No-op when the key is unbound. *)

  val length : 'a t -> int

  val reset : 'a t -> unit
  (** Empty the table and shrink it back to its initial size. *)

  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  val iter : (key -> 'a -> unit) -> 'a t -> unit
end

include S with type key = int
(** Keys must be non-negative: {!replace} and {!add} raise
    [Invalid_argument] on a negative key. *)
