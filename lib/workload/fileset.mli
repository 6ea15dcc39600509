(** The population of files a workload draws from, split into the access
    classes the paper distinguishes (Sections 3.2 and 4):

    - {e installed} files — commands, headers, libraries: widely shared,
      heavily read, almost never written; about half of all reads in the V
      trace;
    - {e shared} files — ordinary files more than one client touches
      (write-sharing happens here);
    - {e private} files — one client's own files;
    - {e temporary} files — most writes; the V cache handles them locally,
      so they never generate server traffic.

    A set is its five counts.  Its ids run from 0 up to {!size}, one range
    per class in this order: each client's temporary files (client 0's
    first), then each client's private files, then the shared files, then
    the installed ones.  Every seeded trace depends on that order. *)

type file_class =
  | Installed
  | Shared
  | Private of int  (** owning client *)
  | Temporary of int  (** owning client *)

type t

val create :
  clients:int ->
  installed:int ->
  shared:int ->
  private_per_client:int ->
  temporary_per_client:int ->
  t
(** All counts must be positive except [shared], [private_per_client] and
    [temporary_per_client], which may be zero. *)

val clients : t -> int
val installed : t -> int
val shared : t -> int
val private_per_client : t -> int
val temporary_per_client : t -> int

val installed_id : t -> int -> Vstore.File_id.t
(** [installed_id t i] is the [i]th installed file, [0 <= i < installed t]. *)

val shared_id : t -> int -> Vstore.File_id.t
val private_id : t -> client:int -> int -> Vstore.File_id.t
val temporary_id : t -> client:int -> int -> Vstore.File_id.t
(** The [i]th file of the class (of [client]'s files, for the last two).
    An index or client outside the class raises [Invalid_argument].  None
    allocates. *)

val class_of : t -> Vstore.File_id.t -> file_class
(** Raises [Not_found] for ids from {!size} up. *)

val size : t -> int
(** Files in the set: its ids are [0 .. size - 1]. *)
