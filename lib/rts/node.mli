(** Query nodes — the processes of Gigascope's architecture.

    A node is either a {e source} (an Interface bound to a Protocol,
    producing interpreted tuples) or a query node running an operator.
    LFTAs are lightweight query nodes linked into the runtime; HFTAs are
    the heavyweight ones. Nodes communicate through bounded channels; a
    subscriber that cannot keep up loses tuples, never blocks the
    producer. *)

type kind = Source | Lfta | Hfta

type source = {
  pull : unit -> Item.t option;
      (** next item, [None] when exhausted (EOF is then emitted once) *)
  clock : unit -> (int * Value.t) list;
      (** current low bounds on ordered fields — what a heartbeat
          publishes even when no tuple has flowed *)
}

type t

type subscriber =
  | Chan of Channel.t  (** a downstream node's input ring *)
  | Callback of (Item.t -> unit)  (** item-level application delivery *)
  | Batch_callback of (Batch.t -> unit)
      (** whole-batch application delivery — preserves the latency-stamp
          column, so egress layers (the network server) can close the
          ingest→deliver measurement per tuple *)

val make_source : name:string -> schema:Schema.t -> source -> t

val make_op : name:string -> kind:kind -> schema:Schema.t -> op:Operator.t -> t
(** Inputs are attached afterwards with {!connect}. *)

val name : t -> string
val kind : t -> kind
val schema : t -> Schema.t

val shard : t -> int option
(** Shard index for a node that is one replica of a sharded query chain
    ([None] for unsharded nodes). The parallel scheduler puts the
    replica of shard [s] on worker [1 + s mod workers]
    ({!Scheduler.partition}) — LFTA-kind replicas included, which would
    otherwise stay on the packet-path domain. *)

val set_shard : t -> int option -> unit

val set_supervisor : t -> Supervisor.t option -> unit
(** With a supervisor installed, an exception raised inside a step
    (operator dispatch or source pull) is submitted to it instead of
    propagating: the node restarts, poisons itself, or escalates as
    {!Supervisor.Crashed} according to the policy. A poisoned node
    emits [Item.Error] at once and drains (discards) its inputs from
    then on, so upstream never wedges; a source emits its [Item.Eof]
    at once, and an operator once every input has delivered its own,
    preceded by one [Item.Gap] counting the tuples it discarded and the
    gaps it received ([-1] if any of those was of unknown size).
    Without a supervisor (the default), the exception propagates as
    before. *)

val set_shed : t -> float option -> unit
(** Sources only (no-op elsewhere): with [Some hw] (a fraction of
    channel capacity in (0, 1]), a pulled tuple is discarded instead of
    emitted while any subscriber channel sits at or above the mark.
    Discards count in the [rts.shed.<node>] counter and are announced
    downstream as one [Item.Gap n] when pressure clears or at EOF, so
    [pulled = emitted + shed] always holds and the loss is visible. *)

val shed_count : t -> int

val set_state_bound : t -> float -> unit
(** Certified resident-state bound for this node's operator (tuples,
    open groups, or sketch-bearing group slots). Default [infinity] =
    uncertified. Negative values reset to [infinity]. Published as the
    [rts.state.<name>.bound] gauge. *)

val state_bound : t -> float

val set_state_slack : t -> float -> unit
(** Arm the state watchdog: after each input step, a query node found
    holding more than [bound × slack] items announces the loss as an
    [Item.Gap] and submits itself to the supervisor as crashed (the
    certificate was violated, so the imputed ordering it rests on is
    wrong — isolate/escalate per policy, never a wedge). [0.] (the
    default) disarms; sources and uncertified nodes are never
    checked. *)

val watchdog_trips : t -> int

val state_peak : t -> int
(** High-water mark of resident operator state (items), sampled after
    every input step; the [rts.state.<name>.peak] gauge. *)

val set_latency_sample : t -> int -> unit
(** Latency measurement interval (default 0 = off). On a source, every
    [n]-th pulled tuple is stamped with {!Gigascope_obs.Clock.now_ns}
    at ingest; the stamp rides the batched data plane as a parallel
    column ({!Batch.stamps}). On a query node the setting is inert —
    operators always propagate an incoming stamp (consume-once: the
    first stamp of a consumed batch rides the next emitted tuple).
    Ingest→deliver durations are observed into the [rts.latency.<name>]
    histogram when a stamped batch reaches a node with a callback
    subscriber. *)

val latency_sample : t -> int

val connect : downstream:t -> upstream:t -> capacity:int -> unit
(** Create a channel from [upstream] into [downstream]'s next input slot. *)

val add_subscriber : t -> subscriber -> unit

val inputs : t -> (t * Channel.t) array
(** Upstream node and the channel it feeds us through, per input. *)

val set_batch : t -> int -> unit
(** Output batch size (default 1): emitted tuples accumulate into a
    per-node builder and are delivered to every subscriber as one batch
    when [n] tuples are pending or a control item seals the batch.
    Changing the size flushes any pending partial batch. *)

val batch_size : t -> int

val emit : t -> Item.t -> unit
(** Feed an item to the output builder. At batch size 1 (the default)
    every item is delivered to every subscriber immediately (with
    per-channel drop accounting), exactly the tuple-at-a-time plane;
    at larger sizes tuples accumulate until sealed. Control items
    always seal and deliver the pending batch at once, so they never
    trail their stream position. *)

val step_source : t -> quantum:int -> bool
(** Pull and emit up to [quantum] items; true if anything was produced.
    Emits one [Eof] at exhaustion. Any partial output batch is flushed
    before returning (flush-on-idle: batching never adds more than one
    scheduler round of latency). *)

val step_inputs : t -> quantum:int -> bool
(** Drain up to [quantum] items from each input through the operator
    (whole batches at a time, each through {!feed}; the quantum is
    checked between batches); true if anything was consumed. Any
    partial output batch is flushed before returning. *)

val feed : Operator.t -> input:int -> Batch.t -> emit:Operator.emit -> unit
(** What {!step_inputs} does with each popped batch: [on_tuple] on
    every tuple in order, then [on_batch_end], then [on_ctrl] on the
    control item if there is one (see {!Operator}). Exposed so operator
    tests drive the path the engine runs. *)

val exhausted : t -> bool
(** Sources: pull returned [None]. Query nodes: EOF emitted downstream. *)

val blocked_input : t -> int option
val heartbeat : t -> unit
(** Sources only: emit a punctuation carrying the current clock bounds.
    No-op for query nodes (they translate incoming punctuation instead). *)

val inject_flush : t -> unit
(** Query nodes only: hand the operator an {!Item.Flush}, making it emit
    its open state now ("the user can obtain output by flushing the
    query", Section 2.2). No-op for sources. *)

val tuples_in : t -> int
val tuples_out : t -> int
val buffered : t -> int

val input_drops : t -> int
(** Tuples lost on this node's input channels. *)

val record_service : t -> float -> unit
(** Record one scheduler service slice (nanoseconds) into this node's
    service-time histogram (fed by {!Scheduler.run}). *)

val register_metrics : t -> Gigascope_obs.Metrics.t -> unit
(** Attach this node's cells under [rts.node.<name>]: [tuples_in] and
    [tuples_out] counters, a polled [buffered] gauge, the [service_ns]
    histogram, and the sampled [callback_ns] subscriber-latency
    histogram. Also attaches the ingest→deliver histogram as
    [rts.latency.<name>] (nanoseconds; populated only when latency
    sampling is on and this node delivers to a callback). *)
