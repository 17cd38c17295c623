(** The stream manager: Gigascope's central registry.

    Query nodes register here by name; applications and other query nodes
    subscribe to a name and get a channel back ("the process then contacts
    the query node to set up communication through shared memory; the
    stream manager does not track the connection further", Section 3).

    The LFTA batch restriction is enforced: because LFTAs are linked into
    the runtime (and possibly the NIC), they must all be submitted before
    {!start}; HFTAs can be added at any point. *)

type t

val create : ?default_capacity:int -> unit -> t
(** [default_capacity] (default 4096) sizes channels created by
    {!add_query_node} and {!subscribe}. *)

val functions : t -> Func.registry
(** The function registry, pre-populated with {!Builtin_funcs}. *)

val metrics : t -> Gigascope_obs.Metrics.t
(** The manager's metrics registry. Every node registered here attaches
    its cells under [rts.node.<name>], every channel (inter-node and
    application subscription) under [rts.chan.<from>-><to>], and the
    scheduler its round/service-time metrics under [rts.scheduler]. *)

val add_source : t -> name:string -> schema:Schema.t -> Node.source -> (Node.t, string) result
(** Sources are bound before start, like LFTAs. *)

val add_query_node :
  t ->
  name:string ->
  kind:Node.kind ->
  schema:Schema.t ->
  inputs:string list ->
  op:Operator.t ->
  (Node.t, string) result
(** Registers the node and subscribes it to each named input, in order.
    Errors: duplicate name; unknown input; an LFTA (or a source) added
    after {!start}; an LFTA reading from anything but a source. *)

val add_query_node_sized :
  t ->
  capacity:int option ->
  name:string ->
  kind:Node.kind ->
  schema:Schema.t ->
  inputs:string list ->
  op:Operator.t ->
  (Node.t, string) result
(** {!add_query_node} with an explicit input-ring capacity. [Some c]
    only ever {e grows} the rings past [default_capacity] — the
    certified-burst auto-sizing path: an upstream whose single-step
    emission (an LFTA table flush, a merge drain) exceeds the default
    ring would otherwise drop tuples. [None] = default. *)

val register_xchannel_metrics : t -> Channel.t -> unit
(** Attach a blocking (cross-domain) channel's cells — the same cells
    as its [rts.chan] family, plus [blocked_ns] — under
    [rts.xchannel.<from>-><to>] (suffix-deduped like [rts.chan]). Called
    by {!Scheduler.run} when it switches the edge ({!Channel.set_blocking}). *)

val find : t -> string -> Node.t option
val nodes : t -> Node.t list
(** In registration (hence topological) order. *)

val subscribe : t -> ?capacity:int -> string -> (Channel.t, string) result
(** Application-side subscription: returns the channel to drain. *)

val on_item : t -> string -> (Item.t -> unit) -> (unit, string) result
(** Callback subscription (never drops). *)

val on_batch : t -> string -> (Batch.t -> unit) -> (unit, string) result
(** Whole-batch callback subscription (never drops). Unlike {!on_item}
    the callback sees the {!Batch.stamps} latency column, so egress
    layers can close the ingest→deliver measurement per tuple. *)

val start : t -> unit
(** Freeze the LFTA set. Idempotent; implied by the first scheduler run. *)

val started : t -> bool

val restart : t -> unit
(** Model "the RTS can be changed in seconds": unfreeze the LFTA set. *)

val flush : t -> string -> (unit, string) result
(** Make the named query emit its open state (partial aggregates) now —
    the escape hatch for aggregations without an ordered group key. *)

val total_drops : t -> int
(** Tuples dropped across all registered nodes' input channels. *)

val trace_report : t -> string
(** The per-node table, EXPLAIN-ANALYZE style: every node's name and
    kind, tuples in/out, input drops, timed scheduler steps, cumulative
    service time and per-tuple cost. Most accurate after a
    {!Scheduler.run} with [~trace:true] (otherwise service times are
    sampled and the totals are scaled estimates). A node's buffered
    state is its [rts.node.<name>.buffered] gauge. *)

val log_src : Logs.src
(** The [logs] source ([gigascope.rts]) under which manager lifecycle
    events (register, subscribe, start/restart, flush) are emitted. *)
