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

type acc
(** One group's accumulator for one aggregate. *)

val init : kind -> acc

val reset : acc -> unit
(** Return [acc] to its {!init} state in place, so a reused LFTA slot
    starts from zero without allocating a new accumulator. *)

val step : acc -> Value.t -> unit
(** [step acc v] folds one tuple's argument value. [Count] counts every
    step, whatever [v] is (a keyless [count] steps with [Null]); the
    other kinds skip [Null] arguments, as in SQL. A sketch
    accumulator folds a raw value by canonicalizing it into the sketch,
    and a [Value.Sketch] argument (a lower level's partial) by merging
    it — an incompatible state is skipped, mirroring how [Sum] skips a
    string. *)

val step_tuple : spec -> acc -> Value.t array -> unit
(** [step_tuple spec acc tuple] steps [acc] with [spec]'s argument
    evaluated on [tuple]: [Null] when there is no argument or it raises
    {!Value.No_value}. *)

val final : acc -> Value.t
(** [Count] of nothing is 0; [Sum]/[Min]/[Max]/[Avg] of nothing is
    [Null]. A partial sketch finalizes to a copied [Value.Sketch]; a
    non-partial one to its estimate ([Int] for distinct/frequency
    counts, a ["item:count,..."] [Str] for heavy hitters). *)

val merge_partial : acc -> acc -> unit
(** [merge_partial acc other] folds [other]'s state into [acc], so that
    splitting a group's tuples across accumulators and merging them is
    indistinguishable from stepping them all into one accumulator —
    the algebraic property that makes sharded sub-aggregation correct.
    [other] is not mutated. Both accumulators must be of the same
    [kind]. Caveat: for float [Sum]/[Avg] the merged result can differ
    from the unsplit one in the last ulp (float addition is not
    associative). Sketch accumulators delegate to [Sketch.merge_into],
    whose laws are exact. *)

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
