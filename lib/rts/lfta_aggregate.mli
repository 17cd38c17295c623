(** The LFTA form of aggregation: a small direct-mapped hash table.

    "An LFTA can perform aggregation, but it uses a small direct-mapped
    hash table. Hash table collisions result in a tuple computed from the
    ejected group being written to the output stream. Because of temporal
    locality, aggregation even with a small hash table is effective in
    early data reduction." (Section 3.)

    The operator therefore emits {e partial} aggregates — possibly several
    per logical group — and relies on a downstream HFTA super-aggregate to
    complete the computation. Epoch advancement flushes the whole table
    and announces the new epoch's bound.
    Emitted partials carry no ordering promise except bandedness on the
    epoch key, which {!Order_infer} imputes.

    A group lands in slot [Value.hash_array key land (2^table_bits - 1)]
    of a {!Group_table}: Int, Ip and Null keys unboxed in an [int array]
    with a tag byte per slot, other kinds in a [Value.t array] created
    on first need; each slot's accumulators are reset in place when the
    slot is reused. Nothing is allocated before the first tuple. *)

type config = {
  table_bits : int;  (** table size is [2 ^ table_bits] slots *)
  pred : (Value.t array -> bool) option;  (** preliminary filtering *)
  keys : (Value.t array -> Value.t) array;
      (** group-key expressions; one that raises {!Value.No_value}
          discards the input tuple *)
  epoch_key : int option;
  direction : Order_prop.direction;
  band : float;
  aggs : Agg_fn.spec array;  (** sub-aggregate specs (see {!Agg_fn.sub_kinds}) *)
  assemble : Value.t array -> Value.t array;
      (** the output tuple from the virtual tuple [keys @ aggs], which
          the operator reuses for every partial: return a fresh array
          and keep no reference to the argument (as in {!Aggregate}) *)
  punct_in : (int * (Value.t -> Value.t option)) option;
      (** input punctuation field and its translation onto the epoch-key
          domain (as in {!Aggregate}); with [epoch_out] also set, a
          source punctuation flushes the table and re-emits the
          translated bound. [None]: punctuation still flushes, but is
          swallowed. *)
  epoch_out : int option;
      (** output position of the epoch key. When set, the table flush at
          an epoch advance to [v] is followed by the bound
          [Punct [(epoch_out, Aggregate.behind_threshold v)]]: no later
          partial lies behind it, so the HFTA (or a sharded
          reunification merge) closes the finished epochs at once. *)
}

type t

val max_table_bits : int
(** The largest [table_bits] {!make} accepts (24); the least is 0. *)

val make : config -> t
val op : t -> Operator.t

val evictions : t -> int
(** Collisions that ejected a partial group — the cost of the small
    table. *)

val emitted : t -> int
(** Partial tuples written to the output stream; [emitted/input] is the
    early-data-reduction factor measured in experiment A1. *)

val register_metrics : t -> Gigascope_obs.Metrics.t -> prefix:string -> unit
(** Attach under [prefix]: [evictions] and [emitted] counters (the same
    cells {!evictions}/{!emitted} read), plus polled gauges [occupied],
    [slots] and [eviction_rate] (evictions per emitted partial — the
    "table too small" signal). *)
