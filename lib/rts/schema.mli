(** Stream schemas: named, typed fields with ordering properties. *)

type field = { name : string; ty : Ty.t; order : Order_prop.t }

type t

val make : field list -> t
(** Raises [Invalid_argument] on duplicate field names. *)

val fields : t -> field array
val arity : t -> int

val field_index : t -> string -> int option
(** Case-insensitive, as SQL identifiers are. *)

val field_at : t -> int -> field

val ordered_fields : t -> (int * field) list
(** Fields whose property is usable for windows/epochs, in schema order. *)

val concat : t -> t -> t
(** Schema of a join output; clashing names get a ["_2"] suffix on the
    right side. *)

val pp : Format.formatter -> t -> unit
