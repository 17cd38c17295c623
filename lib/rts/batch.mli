(** Vectorized item flow: the unit the batched data plane moves.

    A batch is a run of consecutive tuples plus at most one trailing
    control item ({!Item.Punct}, {!Item.Flush} or {!Item.Eof}). Control
    items always {e seal} the batch carrying them, so they keep their
    exact position in the stream: flattening a channel's batch sequence
    with {!to_items} yields the same item sequence whatever the batch
    size. That invariant is what keeps batched execution byte-identical
    to tuple-at-a-time execution (see DESIGN.md §14).

    Batches are immutable once built and may be shared by every
    subscriber of a node.

    Latency stamps: a batch may carry an optional parallel column of
    ingest timestamps ({!Obs.Clock.now_ns} truncated to an integer
    nanosecond count), one slot per tuple, 0 meaning "unstamped". Only
    a sampled subset of tuples is ever stamped, so most batches carry
    [None] and pay nothing. The column is pure metadata: it never
    affects the item sequence, operator semantics, or the
    byte-identity differentials. *)

type t

val make : ?stamps:int array -> Value.t array array -> Item.t option -> t
(** [make ?stamps tuples ctrl]. Raises [Invalid_argument] if [ctrl] is
    a tuple, or if [stamps] is present with a length different from
    the tuple count. The tuple (and stamp) arrays are owned by the
    batch afterwards. *)

val of_item : Item.t -> t
(** A singleton batch — how an item-level push is expressed on the
    batched transport. *)

val tuples : t -> Value.t array array

val stamps : t -> int array option
(** The ingest-stamp column, if any tuple in the batch was sampled.
    Same length as {!tuples}; 0 = unstamped. *)

val ctrl : t -> Item.t option

val n_tuples : t -> int

val items : t -> int
(** Tuples plus the control item, if present — the unit channel
    capacity and quantum accounting are measured in. *)

val is_empty : t -> bool

val iter : t -> (Item.t -> unit) -> unit
(** Visit the batch as items, tuples first then the control item — how
    an item-level subscriber ({!Node.Callback}) sees a delivered batch. *)

val to_items : t -> Item.t list

val pp : Format.formatter -> t -> unit
