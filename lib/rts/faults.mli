(** Deterministic fault injection.

    A seed-driven registry of injection points threaded through the
    runtime (operator steps, cross-domain channel pushes, socket
    writes). A fault {e plan} is parsed from a compact spec string —
    the engine's [GIGASCOPE_FAULTS] setting or [gsq run --inject] — and
    installed globally;
    each instrumented point then consults the plan on every hit.

    Spec grammar (comma-separated clauses):
    {v
      seed=N                global seed for probabilistic clauses
      crash=NODE:K          raise inside NODE's operator on its Kth step
      stall=CHAN:K[:MS]     sleep MS (default 20) in CHAN's Kth cross push
      xclose=CHAN:K         close CHAN out from under its Kth push (race)
      torn=K | torn~P       truncate the Kth outgoing frame (or with prob P)
      drop=K | drop~P       silently drop an outgoing frame
      delay=K:MS | delay~P:MS   delay an outgoing frame by MS
      disconnect=K          hard-close the connection before the Kth send
    v}

    [=K] clauses fire exactly once, on the Kth hit of that point — the
    per-point hit counter is shared across threads and counts each visit
    once, however many clauses name the point, so "the 3rd step of node
    n" means the same event in every run and [crash=n:3,crash=n:5] fires
    on the 3rd and the 5th. [~P] clauses fire with
    probability P from a generator seeded by (seed, point identity), so
    they too replay identically for a given seed regardless of thread
    interleaving elsewhere. *)

exception Injected of string
(** What an armed {!crash_point} raises. Distinguishable from organic
    operator failures in supervisor logs. *)

type mode = Nth of int | Prob of float

type clause = { kind : string; target : string; mode : mode; ms : float }

type t = { seed : int; clauses : clause list }

val parse : string -> (t, string) result
val to_string : t -> string
(** Round-trips through {!parse} (clause order preserved). *)

val install : t -> unit
(** Make [t] the active plan, resetting all hit counters. *)

val clear : unit -> unit
val active : unit -> bool
val current : unit -> t option

(** {2 Injection points} — all are no-ops when no plan is active. *)

val crash_point : node:string -> unit
(** Raises {!Injected} when an armed [crash] clause fires for [node]. *)

val stall_point : chan:string -> unit
(** Sleeps when an armed [stall] clause fires for [chan]. *)

val xclose_point : chan:string -> (unit -> unit) -> unit
(** Invokes the supplied closer when an armed [xclose] clause fires —
    simulating a consumer tearing the channel down mid-push. *)

type send_action = Pass | Torn of int | Drop | Delay of float | Disconnect

val send_point : peer:string -> len:int -> send_action
(** Verdict for one outgoing frame of [len] bytes; at most one clause
    fires per frame (disconnect > torn > drop > delay). *)
