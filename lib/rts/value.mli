(** Runtime values carried in stream tuples. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** covers the DDL's uint/int/time types *)
  | Float of float
  | Str of string
  | Ip of int  (** IPv4 address *)
  | Sketch of Gigascope_sketch.Sketch.t
      (** opaque mergeable sketch state riding between aggregation-tree
          levels; compared and hashed via its canonical encoding *)

exception No_value
(** "No value": what a compiled expression raises (with [raise_notrace])
    when a partial function misses, a parameter is unset, arithmetic
    faults (division by zero) or an operand has the wrong type. The
    tuple being processed is then discarded, per GSQL's partial-function
    semantics; a predicate reads it as false. *)

val compare : t -> t -> int
(** Total order: [Null] first, then by constructor, then by payload.
    [Int]/[Float] compare numerically against each other so that ordered
    attributes survive arithmetic that changes representation. *)

val equal : t -> t -> bool
val hash : t -> int

val to_float : t -> float option
(** Numeric view of [Int]/[Float]/[Bool]; [None] otherwise. Used for
    ordered-attribute arithmetic (windows, bands). *)

val is_truthy : t -> bool
(** [Bool true], nonzero numbers; everything else false. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val hash_array : t array -> int
(** Hash of a tuple key (group-by keys, direct-mapped LFTA slots):
    [hash_combine] folded over the array from 0, then [land max_int]. *)

val hash_combine : int -> t -> int
(** One step of {!hash_array}, for callers that hash a key without
    building its array. *)

val equal_array : t array -> t array -> bool
