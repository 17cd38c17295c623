(** Cooperative execution of the query network, on one or more OCaml
    domains.

    The network is partitioned over the domains ({!partition}); a
    one-domain run is the partition with no workers. Each domain steps
    its nodes round-robin in topological order. On domain 0, which owns
    the sources, a round is one pass over its nodes — sources produce a
    quantum of items, query nodes consume up to a quantum from each
    input — followed by further passes over its query nodes alone, each
    with the same per-step quantum, until none of them moves an item: a
    round ends with everything its packets produced drained as far
    downstream as it can go, however large an epoch flush was. After
    each round, operators that report a blocked input get heartbeats
    requested on their behalf (the "on-demand" ordering-update tokens of
    Section 3), propagated upstream to the sources, whose clocks answer
    with punctuations.

    A run completes when every source is exhausted, every channel
    drained, and EOF has propagated to the sinks. *)

type stats = {
  rounds : int;
  heartbeat_requests : int;
}

val run :
  ?quantum:int ->
  ?max_rounds:int ->
  ?heartbeats:bool ->
  ?on_round:(int -> unit) ->
  ?trace:bool ->
  ?domains:int ->
  ?batch:int ->
  ?supervisor:Supervisor.t ->
  ?shed:float ->
  ?latency_sample:int ->
  ?state_slack:float ->
  Manager.t ->
  (stats, string) result
(** [domains] (default 1) is the paper's process-per-HFTA architecture
    (Section 2.2) mapped onto OCaml domains. Domain 0 (the caller) runs
    the sources and LFTAs — the packet path; each HFTA runs on one of
    [domains - 1] worker domains as a pipeline stage, placed from the
    graph alone (see {!partition}). Edges crossing a domain boundary are
    switched into blocking mode ({!Channel.set_blocking}): the
    inter-process "shared memory" edges get backpressure instead of
    drops, and their cells are also exported under [rts.xchannel.*].
    Every such edge ascends, so the blocking channels cannot form a
    deadlock ring. Blocked HFTAs on worker domains still get on-demand
    heartbeats: the request is queued to domain 0, which owns the source
    clocks. The stats count domain 0's
    productive rounds only; worker progress shows up in node and channel
    metrics. Output is deterministic: every operator's emitted tuple
    sequence depends only on its per-channel input tuple sequences, not
    on punctuation timing or domain interleaving, so every domain count
    produces byte-identical subscriber output (verified by
    test/test_parallel.ml). The effective count is published as the
    [rts.scheduler.domains] gauge.

    [on_round] runs after each of domain 0's scheduling iterations — the
    hook through which a live application changes query parameters or
    flushes queries mid-stream. It mutates live operator state, which
    must not race worker domains, so it forces one domain.

    Any error — an exception escaping a node step, a [Fail_fast]
    escalation from [supervisor], an error on any domain — aborts every
    domain and returns the first error. A wedged network (no domain can
    make progress and nothing is pending anywhere — e.g. with
    [heartbeats:false], or an operator that never completes) is detected
    by a termination probe and reported as
    ["scheduler: wedged (no progress, not finished)"], never as a hang.

    [state_slack] (default 0 = off) arms the per-node state watchdog
    ({!Node.set_state_slack}): a query node holding more than its
    certified bound × slack is treated as crashed (Gap announced, then
    the supervisor's verdict — poison/escalate — applies). Nodes
    without a certified bound are never checked.

    [latency_sample] (default 0 = off) arms end-to-end latency
    measurement ({!Node.set_latency_sample}): every N-th source tuple
    is stamped at ingest, the stamp rides the batched data plane, and
    ingest→deliver durations land in each terminal node's
    [rts.latency.<name>] histogram. The interval is published as the
    [rts.scheduler.latency_sample] gauge.

    [supervisor] installs crash supervision on every node
    ({!Node.set_supervisor}). [shed] arms source-side load shedding at
    that high-water fraction ({!Node.set_shed}).

    [batch] (default 1) sets every node's output batch size
    ({!Node.set_batch}): tuples move through channels in runs of up to
    [batch], sealed early by any control item and flushed at the end of
    every node step, so the emitted item sequence — and therefore the
    subscriber output — is byte-identical for every batch size. The
    effective size is published as the [rts.scheduler.batch] gauge.
    The {e default} quantum is floored at [batch] so a large batch is
    not flushed early; an explicit [quantum] wins (round-indexed hooks
    keep their round structure) at the price of partial batches. A
    blocking channel's limit always holds at least two batches.

    [quantum] (default [max 64 batch]) items per node step (per source
    per round); [max_rounds] (default 10_000_000) bounds domain 0's
    scheduling iterations as a wedge guard; [heartbeats] (default true)
    enables on-demand punctuation (requested by blocked operators).
    Implies {!Manager.start}.

    The run feeds the manager's metrics registry: [rts.scheduler.rounds]
    and [rts.scheduler.heartbeat_requests] counters, plus each node's
    [service_ns] histogram. [rounds] (the stat and the metric) counts
    only {e productive} rounds — iterations in which some node moved at
    least one item; iterations where every node is blocked awaiting
    heartbeat punctuation are scheduling overhead, not progress, and are
    not counted. Service times are sampled (one round in 8); [trace]
    (default false) times {e every} round instead, for
    EXPLAIN-ANALYZE-grade per-operator cost ({!Manager.trace_report}).
    The effective sampling period is published as the
    [rts.scheduler.service_sample] gauge. *)

val request_heartbeat : Node.t -> unit
(** Walk upstream from the node and fire every source's clock punctuation
    (exposed for tests and custom drivers). *)

val partition : domains:int -> Node.t list -> (Node.t list array, string) result
(** Assign nodes to execution domains ([nodes] in registration order,
    which is topological), from the graph alone. Sources and unsharded
    LFTAs land on domain 0; the replica of shard [s] ({!Node.shard}) on
    worker [1 + s mod (domains - 1)]; every other HFTA becomes a
    pipeline stage, one worker above its highest upstream (saturating at
    the last), or the next worker round-robin when fed only from domain
    0. Every cross-domain edge therefore ascends and the domain graph is
    acyclic — the property that keeps the blocking cross-domain channels
    deadlock-free. [domains <= 1] is one part holding every node in
    registration order. The result is always [Ok]: no assignment these
    rules make can be cyclic. Exposed for tests. *)
