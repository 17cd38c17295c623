(** Per-domain execution of a partition of the query network.

    {!Scheduler.run} keeps sources and LFTAs on the calling domain (the
    packet path) and hands each worker domain a list of HFTAs to step.
    Every domain steps its nodes through the same {!pass}; a worker
    parks on a condvar signal when nothing moves instead of spinning —
    pushes into its blocking input channels wake it. A one-domain run
    has no workers and only signal 0. *)

val pass : quantum:int -> timed:bool -> Node.t list -> bool
(** One pass over a domain's nodes in order: a source pulls up to
    [quantum] items, a query node consumes up to [quantum] from each
    input. With [timed], each step's duration lands in the node's
    service-time histogram. True if any node moved an item. *)

val finished : Node.t list -> bool
(** Every node has emitted its Eof and drained its inputs. An operator,
    a poisoned one included, emits its Eof only after each input's, so
    no producer is left pushing into a channel nobody pops. *)

type signal

val notify : signal -> unit

val wait : ?poke:(unit -> unit) -> signal -> unit
(** Returns immediately if a {!notify} landed since the last {!wait}
    (the hint protocol — no lost wakeups). [poke] runs under the signal
    lock, after the signal is marked parked and before the wait: a
    worker passes [notify] on domain 0's signal so the wedge probe
    ({!probe_wedged}) re-runs whenever a domain goes quiet, and cannot
    observe the worker as awake after the announcement. *)

val mark_exited : signal -> unit
(** Mark the owning domain's loop as returned; the signal counts as
    quiescent for {!probe_wedged} and done for {!all_workers_exited}
    from then on. Also used for partitions that never spawn. *)

type shared
(** State shared by all domains of one run: stop flag, first error,
    per-partition wakeup signals, the blocking channels (for error
    shutdown), and the pending cross-domain heartbeat requests. *)

val make_shared : partitions:int -> cross:Channel.t list -> shared
(** [cross] are the edges the run switches into blocking mode. *)

val signals : shared -> signal array

val fail : shared -> string -> unit
(** Record the first error, then stop all domains: raise the stop flag,
    close every blocking channel (unblocking producers), wake every
    parked domain. *)

val error : shared -> string option
val stopped : shared -> bool

val all_workers_exited : shared -> bool
(** Every worker signal (index [>= 1]) is {!mark_exited}. *)

val probe_wedged : shared -> bool
(** Domain-0 termination detection: true only when the run is provably
    frozen — every worker parked or exited, no pending cross-domain
    heartbeat request, no wakeup pending for domain 0, and no {!notify}
    observed anywhere during the probe. With no workers this is true
    whenever domain 0 itself is idle. The caller turns it into the
    wedge error instead of parking forever. *)

val take_heartbeats : shared -> Node.t list
(** Domain-0 side: drain and dedupe the heartbeat requests workers
    queued for the sources upstream of their blocked inputs. *)

type t

val make :
  id:int -> nodes:Node.t list -> quantum:int -> heartbeats:bool -> sample:int -> t
(** [id] is the partition index ([>= 1]; 0 is the packet-path domain);
    [sample] is the service-time sampling period (1 = every iteration). *)

val spawn : shared -> t -> unit Domain.t
(** Run the worker loop on a fresh domain: {!pass} every iteration,
    heartbeat requests for blocked inputs, and, when nothing moves,
    exit ({!finished}) or park on this partition's signal. An escaped
    exception becomes the run's error ({!fail}), stopping every other
    domain. *)
