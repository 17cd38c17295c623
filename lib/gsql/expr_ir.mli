(** Typed expression IR — what the analyzer produces and the code generator
    consumes.

    Field references are positional (resolved against the operator's input
    tuple); function calls carry the registry entry so the splitter can see
    costs and the code generator can instantiate handles. *)

module Rts = Gigascope_rts

type t =
  | Const of Rts.Value.t
  | Field of int * Rts.Ty.t
  | Param of string * Rts.Ty.t
  | Unop of Ast.unop * t
  | Binop of Ast.binop * t * t * Rts.Ty.t  (** the result type *)
  | Call of Rts.Func.t * t list

val ty : t -> Rts.Ty.t

val fields_used : t -> int list
(** Sorted, deduplicated input-field indices. *)

val params_used : t -> string list

val is_lfta_safe : t -> bool
(** No [Expensive] function anywhere in the tree. *)

val monotone_in : t -> int -> bool
(** [monotone_in e i]: is [e], viewed as a function of field [i] with all
    other fields fixed, monotone nondecreasing? Conservative (sound,
    incomplete): field itself; [e + c], [e - c], [e * c] and [e / c] for
    nonnegative constant [c]; [e >> c]. This is what lets [time/60] keep
    [time]'s ordering and serve as an aggregation epoch. *)

val conjuncts : t -> t list
(** Flatten a predicate's top-level AND structure. *)

val conjoin : t list -> t option
(** Rebuild a predicate from conjuncts; [None] for the empty list. *)

val rebase_fields : t -> mapping:(int -> int) -> t
(** Renumber field references (LFTA/HFTA split rebases the HFTA part onto
    the LFTA's output schema). *)

val subst_fields : t -> subst:(int -> t) -> t
(** Replace each field reference by an arbitrary expression — used when a
    split [avg] becomes [sum_partial / count_partial] in the HFTA. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : ?names:(int -> string) -> t -> string
(** [names] renders a field reference (default [$f<index>]). *)
