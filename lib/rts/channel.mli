(** Stream channels between query nodes.

    Models the shared-memory ring buffers of the real system: bounded FIFO
    with drop accounting (the paper's performance metric is precisely "how
    high can the input rate be before tuples drop").

    The transport unit is a {!Batch}: one ring slot holds one batch, so a
    run of tuples costs one push and one pop however long it is.
    Producers may push single items ({!push}); the consumer pops whole
    batches ({!pop_batch}). Flattening the batch sequence always yields
    the same item sequence the tuple-at-a-time plane carried. The
    ring's capacity bounds {e batches}, so the item capacity scales with
    the batch size; drop accounting, depth and high-water are always per
    item.

    A channel starts local: a full ring drops. An edge between two
    execution domains is switched into blocking mode ({!set_blocking})
    before the run spawns its workers — the paper's ring buffer between
    the runtime process and an HFTA process (Section 2.2), with
    backpressure instead of loss. Blocking mode is single-producer,
    single-consumer: the owning domains of the two endpoint nodes. *)

type t

val create : ?capacity:int -> name:string -> unit -> t
(** Default capacity 4096 batches (= items at batch size 1). *)

val name : t -> string
val capacity : t -> int

val push_batch : t -> Batch.t -> bool
(** Local: false when the ring is full, counting every tuple the batch
    carried (plus a non-Eof control item) as drops — except a batch
    sealed by [Eof], whose control item is always delivered (tuples
    dropped, a buffered batch evicted if necessary) so a full channel
    cannot wedge shutdown. Blocking: waits while the channel is full
    and refuses (counting the same drops, Eof excepted) only once
    {!close}d. *)

val push : t -> Item.t -> bool
(** {!push_batch} of a singleton batch — item-at-a-time behaviour,
    byte-for-byte the pre-batching semantics. *)

val pop_batch : t -> Batch.t option
(** Dequeue one batch, whole (never waits) — the only consumer call. *)

val length : t -> int
(** Buffered items (tuples plus control items). Constant time. *)

val is_empty : t -> bool

val tuples_in : t -> int
(** Tuples successfully enqueued (punctuation and EOF not counted). *)

val drops : t -> int
(** Items refused, counted {e per item}: a refused batch adds every
    tuple it contained. *)

val high_water : t -> int
(** Largest {!length} ever reached, in items. *)

val set_blocking : t -> limit:int -> on_push:(unit -> unit) -> bool
(** Switch to blocking mode, in place: a push waits while [limit] items
    are buffered (or the ring is full), so backpressure keeps producer
    and consumer domains rate-matched. A batch is admitted whole once
    any room exists, so depth can overshoot [limit] by one batch. The
    limit is clamped up to what is already buffered, since the switch
    runs on one domain before any worker spawns. [on_push] runs after
    every accepted push and after {!close}, outside the channel lock —
    the consumer domain's wakeup. Buffered batches stay where they are.
    Returns [true] when the channel was local, [false] when it was
    already blocking (the limit and hook are replaced). *)

val close : t -> unit
(** Blocking mode: mark closed and wake a waiting producer; later pushes
    are refused. Items already queued remain poppable. Used to propagate
    an error out of a crashed domain. No-op on a local channel. *)

val blocked_ns : t -> int
(** Cumulative nanoseconds producers spent waiting on a full blocking
    channel (0 on a local one). *)

val register_metrics : t -> Gigascope_obs.Metrics.t -> prefix:string -> unit
(** Attach this channel's counters ([tuples_in], [drops]), polled gauges
    ([depth], [high_water]), the [batch_items] occupancy histogram
    (items per pushed batch) and, once blocking, the [blocked_ns]
    counter under [prefix]. The cells are the channel's own accounting
    — {!tuples_in} and {!drops} read the same counters — so registration
    adds no cost to {!push_batch}, and registering one channel under two
    prefixes exports one set of counts twice. *)
