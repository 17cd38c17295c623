(** Group-by / aggregation over streams (the HFTA form).

    Gigascope turns this blocking operator into a stream operator with
    ordered attributes (Section 2.1): the group key should contain an
    ordered attribute (the {e epoch key}); when a tuple arrives whose epoch
    value is beyond every open group's (minus the band, for
    banded-increasing inputs), the passed groups are closed and flushed to
    the output. Punctuations close groups the same way, and translate to
    output punctuations. Closed groups are emitted in epoch order, so the
    output epoch attribute is imputed monotone.

    The groups live in {!Group_table}s, one per open epoch (one in all
    without an epoch key), probed linearly from
    [Value.hash_array key] and doubled when half full; grouping is by
    that hash and {!Value.equal}. A flush takes the closed epochs whole,
    oldest first, and never visits an open one. Within an epoch the
    groups come out in polymorphic [compare] order of their key arrays,
    which {!Group_table.compare_slots} computes on the columns. An
    aggregation without an epoch key closes only at [Flush] or [Eof],
    in the same key order. Nothing is allocated for groups before the
    first tuple. *)

type config = {
  pred : (Value.t array -> bool) option;
      (** the WHERE clause, folded into the operator as generated C would *)
  keys : (Value.t array -> Value.t) array;
      (** group-key expressions; one that raises {!Value.No_value} (a
          partial function) discards the input tuple *)
  epoch_key : int option;  (** index into [keys] of the ordered key *)
  direction : Order_prop.direction;
  band : float;  (** slack before closing (banded-increasing inputs) *)
  aggs : Agg_fn.spec array;
  assemble : Value.t array -> Value.t array;
      (** build the output tuple from the {e virtual} tuple
          [keys @ aggs]. The operator fills one virtual tuple per group
          it emits and reuses it, so [assemble] must return a fresh
          array and keep no reference to its argument. *)
  having : (Value.t array -> bool) option;
      (** filter applied to the same virtual tuple before assembly —
          HAVING in GSQL sees keys and aggregates, not the projected
          output *)
  epoch_out : int option;  (** output index of the epoch key, for puncts *)
  punct_in : (int * (Value.t -> Value.t option)) option;
      (** which {e input} field's punctuation bounds apply, and how to map a
          bound into epoch-key space (the group-key expression itself, when
          it is monotone in that field) *)
}

val behind_threshold : direction:Order_prop.direction -> band:float -> Value.t -> Value.t
(** [behind_threshold ~direction ~band v]: once the epoch key has
    reached [v], no later tuple of a banded input lies strictly behind
    the result ([v - band], floored for integers, ascending; mirrored
    descending). *)

type t

val make : config -> t
val op : t -> Operator.t
val open_groups : t -> int
val flushes : t -> int
(** Number of group closures emitted so far. *)

val register_metrics : t -> Gigascope_obs.Metrics.t -> prefix:string -> unit
(** Attach under [prefix]: the [flushes] counter, a [flush_ns]
    histogram with one sample per flush that closes at least one group
    (its wall time, emission included), and a polled [open_groups]
    gauge. *)
