(** Static types of GSQL attributes and expressions. *)

type t = Bool | Int | Float | Str | Ip | Sketch

val of_value : Value.t -> t option
(** [None] for [Null]. *)

val is_numeric : t -> bool

val of_ddl_name : string -> t option
(** DDL spellings: [bool], [int], [uint], [time], [llong] -> {!Int} family;
    [float]; [string]; [ip]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
