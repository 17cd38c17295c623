(** Static memory certification of compiled plans.

    Walks a {!Split.t} (the physical LFTA/HFTA graph, possibly
    sharded) and derives a symbolic per-operator state bound from the
    analyzer's ordering properties — or a structured [Unbounded]
    verdict naming the operator, the missing ordering property, and
    the rewrite that would bound it. The engine uses the evaluated
    bounds for admission control, channel auto-sizing, and the state
    watchdog; [gsq explain --memory] prints the derivation. *)

(** Symbolic bound. [Card] is a named cardinality with its default
    estimate, so reports can say {e why} a number is what it is. *)
type expr =
  | Num of float
  | Card of string * float
  | Sum of expr list
  | Prod of expr list

val eval : expr -> float
(** Collapse under the default cardinality model. *)

val render : expr -> string

type unbounded = {
  u_operator : string;  (** physical node name *)
  u_reason : string;  (** the missing ordering property *)
  u_fix : string;  (** the rewrite that would bound it *)
}

type verdict = Finite of expr | Unbounded of unbounded

type node_cert = {
  cname : string;
  ckind : string;  (** select | lfta-agg | agg | join | merge *)
  cstate : verdict;  (** resident tuples/groups/sketch cells *)
  cburst : int;  (** worst-case tuples emitted in one step (flush/drain) *)
  cdetail : string;  (** one-line derivation *)
}

type t = {
  cquery : string;
  cnodes : node_cert list;
  ctotal : verdict;  (** sum of node states, or the first unbounded one *)
}

val certify : Split.t -> t

val finite : t -> bool

val total_estimate : t -> float option
(** Evaluated query bound in resident tuples; [None] if unbounded. *)

val unbounded_nodes : t -> unbounded list

val node_bound : t -> string -> float option
(** Evaluated state bound for one physical node (by registered name,
    case-insensitive); [None] if unknown or unbounded. *)

val burst : t -> string -> int
(** Worst-case single-step emission of one node — the lower bound for
    the capacity of the channel it feeds. 1 for unknown nodes. *)

val query_burst : t -> int
(** Max burst across the query's nodes — sizes the subscriber/egress
    queue. *)

val diagnostic : unbounded -> string
(** One-line "operator X holds unbounded state: ...; fix: ..." *)

val report : t -> string
(** Multi-line derivation, [shard_report]-style. *)
