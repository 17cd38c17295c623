(** Aggregate functions and their sub/super-aggregate decomposition.

    When the splitter pushes an aggregation down into an LFTA, each
    aggregate is decomposed like a data-cube sub/super-aggregate pair
    (Section 3): the LFTA computes partials over whatever groups survive in
    its small table, and the HFTA combines partials into the true result.
    [Avg] needs two partials (sum and count).

    Sketch aggregates generalize the same algebra to approximate
    summaries: the sub-aggregate folds raw values into a mergeable
    sketch and emits the sketch state itself ([partial = true]); every
    level above merges incoming states ([Sketch.merge] is commutative
    and associative), and only the top level renders an estimate
    ([partial = false]). Because the partial state is a single opaque
    value, N-level aggregation trees need no per-kind knowledge beyond
    this module. *)

type sketch_spec =
  | Distinct of { precision : int }  (** HyperLogLog approximate COUNT(DISTINCT x) *)
  | Heavy of { k : int }  (** space-saving top-k heavy hitters *)
  | Freq of { eps : float; delta : float }  (** count-min frequency sketch *)

type kind =
  | Count
  | Sum
  | Min
  | Max
  | Avg
  | Sketch of { sk : sketch_spec; partial : bool }
      (** [partial = true]: emit the sketch state for an upper level to
          merge; [partial = false]: render the estimate. *)

type spec = {
  kind : kind;
  arg : (Value.t array -> Value.t) option;
      (** argument expression; [None] only for [Count]. It may raise
          {!Value.No_value}, which the operators fold as [Null]. *)
}

type t
(** The accumulators of one list of aggregates over a fixed number of
    slots, held by column: per aggregate, only the unboxed columns its
    kind reads. [Count] keeps an int column; [Sum] and [Avg] the count
    of numbers folded, an int sum, a [Float.Array] sum and a byte
    flagging a folded [Float]; [Min] and [Max] a [Value.t] column; a
    sketch kind a column of sketches. A slot is an index. *)

val create : spec array -> slots:int -> t
(** [create specs ~slots]: accumulators for [specs] over [slots] slots,
    allocated here, one array per column. A slot's contents are
    undefined until its first {!reset}. *)

val reset : t -> int -> unit
(** Return slot [i] to zero in place: counts and sums 0, no [Float]
    folded, extrema [Null], a fresh sketch. Only a sketch allocates. *)

val step : t -> int -> Value.t array -> unit
(** [step t i tuple] folds [tuple] into slot [i]: each aggregate's
    argument is evaluated on [tuple] ([Null] when there is none or it
    raises {!Value.No_value}). [Count] counts every tuple, whatever the
    argument; the other kinds skip a [Null] argument, as in SQL. An
    [Int] adds to both sums, a [Float] to the float sum, and any other
    kind is skipped by [Sum] and [Avg]. A sketch folds a raw value by
    canonicalizing it into the sketch, and a [Value.Sketch] argument (a
    lower level's partial) by merging it; an incompatible state is
    skipped, as [Sum] skips a string. *)

val move : src:t -> int -> dst:t -> int -> unit
(** [move ~src i ~dst j] copies slot [i] of [src] into slot [j] of
    [dst], which must hold the same aggregates; a sketch is shared, not
    copied, so [src]'s slot must not be used again. *)

val merge : t -> int -> src:t -> int -> unit
(** [merge t i ~src j] folds slot [j] of [src] into slot [i] of [t], so
    that splitting a group's tuples across slots and merging them is
    indistinguishable from stepping them all into one slot — the
    algebraic property that makes sharded sub-aggregation correct.
    [src] is not mutated. Both must hold the same aggregates. Caveat:
    for a float [Sum]/[Avg] the merged result can differ from the
    unsplit one in the last ulp (float addition is not associative).
    Sketches merge with [Sketch.merge_into], whose laws are exact. *)

val fill : t -> int -> Value.t array -> int -> unit
(** [fill t i out off] writes slot [i]'s final values into [out.(off)]
    onward, one per aggregate. [Count] of nothing is 0;
    [Sum]/[Min]/[Max]/[Avg] of nothing is [Null]; a [Sum] is a [Float]
    once any [Float] was folded. A partial sketch finalizes to a
    copied [Value.Sketch]; a non-partial one to its estimate ([Int] for
    distinct/frequency counts, a ["item:count,..."] [Str] for heavy
    hitters). *)

val sub_kinds : kind -> kind list
(** Partials the LFTA computes: e.g. [Avg -> [Sum; Count]]; a sketch
    kind's single partial is itself with [partial = true]. *)

val super_kind : kind -> kind list
(** How the HFTA combines each partial: e.g. [Count -> [Sum]] (counts are
    summed), [Min -> [Min]]. Same length as [sub_kinds]. *)

val relay_kind : kind -> kind
(** How an intermediate tree level re-aggregates one partial column so
    its output is again a partial of the same shape: counts are summed,
    extrema re-taken, sketch states merged and re-emitted as state.
    Defined on the kinds [sub_kinds] can produce ([Avg] never appears
    there and maps to itself). *)

val result_ty : kind -> arg_ty:Ty.t option -> Ty.t
(** Static type of [final]'s value: [Count] and the non-partial
    distinct/frequency sketches are [Int], [Avg] is [Float], heavy
    hitters render as [Str], partial sketches are [Ty.Sketch], and
    [Sum]/[Min]/[Max] take their argument's type. *)

val kind_to_string : kind -> string
