(** The population of files a workload draws from, split into the access
    classes the paper distinguishes (Sections 3.2 and 4):

    - {e installed} files — commands, headers, libraries: widely shared,
      heavily read, almost never written; about half of all reads in the V
      trace;
    - {e shared} files — ordinary files more than one client touches
      (write-sharing happens here);
    - {e private} files — one client's own files;
    - {e temporary} files — most writes; the V cache handles them locally,
      so they never generate server traffic. *)

type file_class =
  | Installed
  | Shared
  | Private of int  (** owning client *)
  | Temporary of int  (** owning client *)

type t

val create :
  fresh_id:(unit -> Vstore.File_id.t) ->
  clients:int ->
  installed:int ->
  shared:int ->
  private_per_client:int ->
  temporary_per_client:int ->
  t
(** All counts must be positive except [shared], [private_per_client] and
    [temporary_per_client], which may be zero. *)

val clients : t -> int
val installed : t -> Vstore.File_id.t array
val shared : t -> Vstore.File_id.t array
val private_of : t -> int -> Vstore.File_id.t array
val temporary_of : t -> int -> Vstore.File_id.t array
val class_of : t -> Vstore.File_id.t -> file_class
(** Raises [Not_found] for ids the set does not contain.  The first call
    builds the class index; a set nobody asks never pays for it. *)

val all : t -> Vstore.File_id.t list
(** Every id the set allocated, ascending. *)

val size : t -> int
