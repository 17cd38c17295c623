(** The Gigascope engine: everything wired together.

    An engine owns a stream manager, a catalog preloaded with the built-in
    protocols and function library, and a set of named interfaces, each
    with a packet feed and a NIC model. Submitting GSQL text compiles,
    splits, and installs query networks; Protocol sources are bound to
    interfaces on demand, pushing NIC hints (bpf filter + snap length) into
    cards that support them. A source interprets only the fields its
    LFTAs read and copies a payload only for packets a payload-reading
    LFTA can accept; anything else that reads it gets every field (see
    {!note_direct_consumer}). *)

module Rts = Gigascope_rts
module Gsql = Gigascope_gsql
module Nic = Gigascope_nic.Nic
module Packet = Gigascope_packet.Packet

(** What the interface's card can do; the actual filter program comes from
    the query splitter. *)
type nic_capability =
  | Cap_none  (** deliver everything (plain card) *)
  | Cap_bpf  (** accepts a filter + snap length *)
  | Cap_lfta  (** programmable: runs LFTAs on the card (Tigon-style) *)

type t

(** Admission control: the engine's stance on plans whose memory
    certification ({!Gsql.Certify}) comes back unbounded.
    [Admit_allow] installs silently; [Admit_warn] (the library default)
    installs with a logged diagnostic — the epoch-less flush-driven
    aggregation of Section 2.2 is a legitimate embedded use;
    [Admit_reject] refuses the install with the diagnostic — the
    posture of a server admitting arbitrary GSQL ([gsq run]/[gsq serve]
    default to it; [--allow-unbounded] downgrades to [Admit_warn]). *)
type admit = Admit_allow | Admit_warn | Admit_reject

val admit_of_string : string -> (admit, string) result
(** ["allow" | "warn" | "reject"], case-insensitive. *)

val admit_to_string : admit -> string

(** {2 Settings}

    {!create} and {!run} resolve each setting the same way. A value
    comes from the argument, else from the setting's environment
    variable, else from its default; an empty variable counts as unset.
    A value that fails the setting's check, by either route, is warned
    about by name (argument or variable) and replaced by the default,
    never honoured as something else. Five variables remain:
    [GIGASCOPE_SHARDS] and [GIGASCOPE_ADMIT] (read by {!create}),
    [GIGASCOPE_PARALLEL], [GIGASCOPE_BATCH] and [GIGASCOPE_FAULTS] (read
    by every {!run}; a fault plan is re-installed, hit counters reset,
    at the start of each run — see {!Rts.Faults}). {!create} warns once
    about any other non-empty [GIGASCOPE_*] variable, retired or
    misspelt, and otherwise ignores it. {!create}'s [default_capacity]
    (>= 1, default 4096 batches per channel) and {!run}'s [quantum]
    (>= 1; unset, the scheduler uses max 64 [batch]) are checked the
    same way. {!run}'s info log line prints every resolved setting. *)

val create : ?default_capacity:int -> ?shards:int -> ?admit:admit -> unit -> t
(** [admit] (default [Admit_warn]) is the admission stance applied to
    every subsequent install.

    [shards] (>= 1, default 1) > 1 makes every subsequently installed
    query data-parallel: the splitter replicates the eligible LFTA chain
    per shard behind a source-side partitioner and reunifies the
    replicas through an order-preserving merge — see
    {!Gsql.Split.shard}. Output stays byte-identical to the unsharded
    engine for every installable query; plans the splitter cannot shard
    install unchanged and {!trace_report} names them with the reason.
    Sharding rewrites plans at install time, which is why the setting
    lives here and not on {!run}. *)

val manager : t -> Rts.Manager.t
val catalog : t -> Gsql.Catalog.t

val metrics : t -> Gigascope_obs.Metrics.t
(** The runtime's metrics registry (owned by the stream manager): every
    node, channel, operator and the scheduler report here. See DESIGN.md
    for the metric namespace. *)

val metrics_snapshot : t -> Gigascope_obs.Metrics.snapshot
(** Convenience: {!Gigascope_obs.Metrics.snapshot} of {!metrics}. *)

val register_function : t -> Rts.Func.t -> unit
(** Extend the function library ("users can make new functions available by
    adding the code to the function library and registering the
    prototype"). *)

val add_interface :
  t ->
  name:string ->
  ?capability:nic_capability ->
  feed:(unit -> unit -> Packet.t option) ->
  unit ->
  unit
(** [feed] is a factory: each Protocol bound to this interface pulls from
    its own fresh iterator (feeds must be deterministic replays for
    multiple bindings to observe the same traffic). *)

val add_packet_list_interface :
  t -> name:string -> ?capability:nic_capability -> Packet.t list -> unit

val add_generator_interface :
  t -> name:string -> ?capability:nic_capability -> Gigascope_traffic.Gen.config -> unit

val add_split_interfaces :
  t -> names:string list -> ?capability:nic_capability -> Gigascope_traffic.Gen.config -> unit
(** Model simplex optical links: the generator's packets are partitioned
    over the named interfaces by flow (config [interface_count] should
    equal the list length). This is the setting that makes MERGE essential
    (Section 2.2). *)

val add_pcap_interface :
  t -> name:string -> ?capability:nic_capability -> string -> (unit, string) result
(** Replay a capture file as an interface. *)

val add_defrag_interface :
  t ->
  name:string ->
  ?capability:nic_capability ->
  ?reassembly_timeout:float ->
  feed:(unit -> unit -> Packet.t option) ->
  unit ->
  unit
(** Like {!add_interface}, with the IP defragmentation operator interposed
    between the feed and interpretation — the paper's example of a special
    user-written node ("we have implemented a special IP defragmentation
    operator in this manner and have built a query tree using it",
    Section 3). Queries over this interface see whole datagrams;
    non-final fragments never reach the Protocol library. *)

val add_session_source :
  t ->
  name:string ->
  ?idle_timeout:float ->
  feed:(unit -> Packet.t option) ->
  unit ->
  (unit, string) result
(** Register a TCP-session stream (see {!Sessions}) fed by a packet feed:
    queries then read closed-session records by [name]. The paper's
    future-work item, "extract the TCP/IP sessions" (Section 5). *)

val add_custom_source :
  t ->
  name:string ->
  schema:Rts.Schema.t ->
  pull:(unit -> Rts.Item.t option) ->
  clock:(unit -> (int * Rts.Value.t) list) ->
  (unit, string) result
(** Bypass the packet path entirely — the paper's escape hatch for
    user-written query nodes (e.g. a Netflow record source or an IP
    defragmentation operator). Registers the schema so queries can read the
    stream by name. *)

val nic_of : t -> string -> Nic.t option
(** The interface's card, for inspecting delivery statistics. *)

val install_program :
  t -> ?params:(string * Rts.Value.t) list -> string -> (Gsql.Codegen.instance list, string) result
(** Compile and install every query in the GSQL text. *)

val install_query :
  t ->
  ?params:(string * Rts.Value.t) list ->
  ?name:string ->
  string ->
  (Gsql.Codegen.instance, string) result

val explain : t -> ?memory:bool -> ?name:string -> string -> (string, string) result
(** Compile only; render plan, split, ordering properties and pseudo-C.
    [~memory:true] appends the {!Gsql.Certify} derivation — per-operator
    state bounds or the unbounded diagnostic ([gsq explain --memory]). *)

val admit_mode : t -> admit

val certificate : t -> string -> Gsql.Certify.t option
(** The memory certificate recorded when the named query was installed
    (post-shard-rewrite), if any. *)

val certified_burst : t -> string -> int
(** Worst-case single-step emission of the named installed query (1 if
    unknown) — what the network server uses to auto-size its egress
    queues. *)

val subscribe : t -> ?capacity:int -> string -> (Rts.Channel.t, string) result
(** Without an explicit [capacity], the subscriber ring is auto-sized:
    at least the engine's default capacity, grown to the query's
    certified burst plus headroom. A Protocol source's stream then
    carries every field, as for {!on_tuple}. *)

val on_tuple : t -> string -> (Rts.Value.t array -> unit) -> (unit, string) result
(** Callback for each output tuple of the named stream. A Protocol
    source's stream (["eth0.tcp"]) then carries every field, payload
    included: see {!note_direct_consumer}. *)

val note_direct_consumer : t -> string -> unit
(** Something other than an installed LFTA reads the named stream. If
    it is a bound Protocol source, the source interprets every field,
    payload included, from now on. A source read only by LFTAs
    interprets the union of the fields they read, and copies a payload
    only for packets that a payload-reading LFTA's guard accepts (see
    {!Gsql.Split.nic_hint}). {!on_tuple} and {!subscribe} call this
    themselves, and the network server calls it for each client
    subscription. Safe to call from another thread while the engine
    runs; a no-op for any other stream. *)

val run :
  t ->
  ?quantum:int ->
  ?heartbeats:bool ->
  ?on_round:(int -> unit) ->
  ?trace:bool ->
  ?parallel:int ->
  ?batch:int ->
  ?supervise:Rts.Supervisor.policy ->
  ?shed:float ->
  ?latency_sample:int ->
  ?state_slack:float ->
  ?shards:int ->
  unit ->
  (Rts.Scheduler.stats, string) result
(** Drive the network until every source is exhausted. [heartbeats]
    (default true) enables on-demand punctuation; [on_round] is the live
    application's hook (change parameters, flush queries); [trace] times
    every scheduler step (instead of a 1-in-8 sample) so
    {!trace_report} gives exact per-operator costs.

    [parallel] (>= 1, default 1) > 1 runs the network on that many
    OCaml domains ({!Rts.Scheduler.run}'s [domains]) — HFTAs on worker
    domains, placed from the graph ({!Rts.Scheduler.partition}), sources
    and LFTAs on the caller. Output is byte-identical to the one-domain
    run. [on_round] forces one domain (the hook mutates live operator
    state, which must not race worker domains).

    [batch] (>= 1, default 1) vectorizes the data plane: tuples move
    through channels, operators and the scheduler in runs of up to
    [batch] ({!Rts.Scheduler.run}'s knob). Output is byte-identical for
    every batch size.

    [supervise] (default [Fail_fast]) chooses the crash policy — see
    {!Rts.Supervisor}: [Fail_fast] turns any node crash into this run's
    [Error] (naming the node); [Isolate] poisons only the crashing
    subtree ([Item.Error] downstream at once, then, once its inputs
    end, an [Item.Gap] counting what it discarded and [Item.Eof]);
    [Restart] restarts stateless operators in place up to 3 times per
    node. [shed] (a fraction in (0,1], default off) is a high-water
    mark: sources discard tuples while a subscriber channel sits at or
    above it, counting them under [rts.shed.<node>] and announcing them
    downstream as [Item.Gap].

    [latency_sample] (>= 0, default 0 = off) arms end-to-end latency
    measurement: every N-th source tuple is stamped at ingest and
    ingest→deliver durations land in the [rts.latency.<query>]
    histograms (and [net.latency.<query>] at the network server's
    egress). Off by default — the stamp column and clock reads are
    strictly opt-in, so differential tests and throughput baselines are
    unperturbed.

    [state_slack] (0 = off, the default, or >= 1.0) arms the state
    watchdog: a node found holding more than its certified bound ×
    slack is treated as crashed — the loss announced as an in-band
    [Item.Gap], then the supervision policy applies (isolate poisons
    just that subtree; fail_fast surfaces the node by name).

    [shards] is a guard, not a knob: sharding is fixed when the engine
    is created (see {!create}), so passing a value that disagrees with
    the engine's shard count is an [Error] rather than a silent
    no-op. *)

val flush : t -> string -> (unit, string) result
(** Make the named query emit its open state now — how an analyst gets
    output from an aggregation without an ordered group key
    (Section 2.2). *)

val trace_report : t -> string
(** EXPLAIN-ANALYZE-style per-operator breakdown: tuples, drops, timed
    steps, cumulative service time, ns/tuple (see
    {!Rts.Manager.trace_report}), then one line per bound Protocol
    source (the fields it interprets, its payload guard and the payloads
    copied, also counted under [rts.node.<source>.payloads]), followed
    by {!shard_report} when the
    engine is sharded and a one-line-per-query memory summary (bound
    estimate and burst, or the unbounded diagnostic). *)

val shards : t -> int
(** The shard count fixed at {!create} (1 = unsharded). *)

val shard_report : t -> string
(** One line per installed query when the engine is sharded: replica
    count and partitioning mode — keyless plans are flagged as falling
    back to round-robin with a full reunification merge — or the
    splitter's reason a query could not shard. [""] when unsharded. *)

val total_drops : t -> int

val log_src : Logs.src
(** The [logs] source ([gigascope.engine]) for engine lifecycle events
    (interface added, query installed, run started/completed). *)
