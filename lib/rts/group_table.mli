(** The flat group table of the two aggregation operators.

    A table is a fixed number of slots held by column: per group-key
    column an [int array] payload and one tag byte per slot (Int, Ip
    and Null keys unboxed), with a [Value.t array] created only once a
    key of another kind lands in that column; one occupancy byte per
    slot; and the aggregates' accumulator columns ({!Agg_fn.t}) over
    the same slots, allocated with the table. The operators decide
    which slot a key goes to and when a slot is emptied:
    {!Lfta_aggregate} maps a key to one slot and evicts on collision,
    {!Aggregate} probes a growing table per open epoch.

    A tuple's key is read once into a reused {!key} entry, without
    allocating; lookups compare it with a slot column by column, with
    {!Value.equal}'s semantics. *)

type t

val empty : t
(** A table of no slots, to stand for one not yet allocated. *)

val create : keys:int -> aggs:Agg_fn.spec array -> slots:int -> t
(** A table of [slots] empty slots for [keys] key columns and the
    accumulators of [aggs]. *)

val slots : t -> int

type key
(** One tuple's group key, decoded into columns' shape. *)

val make_key : int -> key

val read_key : key -> (Value.t array -> Value.t) array -> Value.t array -> epoch:int -> Value.t
(** [read_key k keys tuple ~epoch] evaluates [keys] on [tuple] into [k]
    and records their {!Value.hash_array}; it returns the value of key
    [epoch], or [Null] when [epoch] is not a key index. Raises
    {!Value.No_value} when a key has none. *)

val hash : key -> int
(** The last {!read_key}'s [Value.hash_array]. *)

val occupied : t -> int -> bool

val matches : t -> int -> key -> bool
(** [matches t idx k]: slot [idx] holds a key [Value.equal_array] to
    [k]. Int, Ip and Null entries of different kinds never match. *)

val insert : t -> int -> key -> unit
(** Occupy slot [idx] with [k], its accumulators reset in place to
    zero ({!Agg_fn.reset}). *)

val step : t -> int -> Value.t array -> unit
(** [step t idx tuple] folds [tuple] into slot [idx]'s accumulators
    ({!Agg_fn.step}). *)

val release : t -> int -> unit
(** Mark slot [idx] empty. *)

val move : src:t -> int -> dst:t -> int -> unit
(** [move ~src i ~dst j] occupies [dst]'s slot [j] with [src]'s slot
    [i]: its key and accumulator columns are copied ({!Agg_fn.move}),
    so [src]'s slot must not be used again. *)

val fill : t -> int -> Value.t array -> unit
(** [fill t idx virt] writes slot [idx]'s key values and then its
    accumulators' final values ({!Agg_fn.fill}) into [virt], from index
    0: the virtual tuple [keys @ aggs] that HAVING and the output items
    read. *)

val compare_slots : t -> int -> int -> int
(** Has the sign of polymorphic [compare] on the two slots' key arrays,
    read back as values, without boxing them. *)

val sort : t -> int array -> int -> int array
(** [sort t slots n]: the occupied slots [slots.(0 .. n-1)] in
    {!compare_slots} order, as a fresh array. *)
