(** Supervision of crashing query nodes.

    The paper runs each HFTA as its own process so an expensive operator
    dying cannot take down packet capture; here the same stance is a
    policy over in-process nodes. When an operator (or source pull)
    raises mid-step, the owning node asks its supervisor for a verdict:

    - {b fail_fast} (default): escalate — the whole run stops with an
      [Error] naming the node. Matches pre-supervision behaviour, minus
      the raw backtrace.
    - {b isolate}: poison only the crashing node's subtree. The node
      emits [Item.Error], keeps draining (discarding) its inputs so
      upstream never wedges, and once they end announces what it
      discarded as an [Item.Gap] before its [Item.Eof], so downstream
      operators terminate normally with explicitly partial results.
    - {b restart}: operators that declare a [reset] (stateless ones)
      are restarted in place, up to 3 times per node; an [Item.Gap]
      marks the items lost to the crash. Stateful or over-budget nodes
      degrade to poisoning.

    All verdicts are observable: [rts.supervisor.restarts],
    [rts.supervisor.poisoned], [rts.supervisor.escalations]. *)

type policy = Fail_fast | Isolate | Restart

val policy_of_string : string -> (policy, string) result
val policy_to_string : policy -> string

exception Crashed of string * string
(** [(node, message)]: a [Fail_fast] escalation, caught at the scheduler
    boundary and turned into the run's [Error] result. *)

type verdict = Retry | Poison | Escalate

type t

val create : ?policy:policy -> unit -> t
(** [policy] defaults to [Fail_fast]. *)

val policy : t -> policy

val register_metrics : t -> Gigascope_obs.Metrics.t -> unit
(** Attach [rts.supervisor.*] counters. *)

val on_crash : t -> node:string -> restartable:bool -> exn -> verdict * string
(** Record a crash and rule on it. Thread-safe (nodes on worker domains
    report here too). Returns the verdict plus a printable message. *)

val restarts : t -> int
val poisoned : t -> string list
