(** The LFTA/HFTA query splitter (Section 3's central optimization).

    "One significant optimization technique is to push the query as far
    down the processing stack as possible, even into the network interface
    card itself." A logical plan over Protocol sources is rewritten into:

    - one {e LFTA} per Protocol source: cheap filtering, projection, and
      sub-aggregation over a small direct-mapped table, linked into the
      runtime (and, when the predicate lowers to the filter machine, pushed
      into the NIC along with the snap length);
    - one {e HFTA} completing the query: expensive predicates (regex UDFs),
      join, merge, and super-aggregation over the LFTA partials.

    A simple, fully cheap selection executes entirely as an LFTA. Split
    aggregates follow the sub/super-aggregate decomposition of
    {!Gigascope_rts.Agg_fn}. *)

module Rts = Gigascope_rts
module Bpf = Gigascope_bpf

type nic_hint = {
  nic_filter : Bpf.Filter.t option;
      (** lowered (possibly weaker) predicate; the LFTA re-checks, so a
          partial lowering is still sound *)
  snap_len : int;  (** bytes of each qualifying packet the NIC returns *)
  fields_needed : int list;
      (** the Protocol schema's fields the LFTA reads, sorted: the fields
          its source must interpret (the per-field interpretation
          functions of Section 2.2) *)
  payload_guard : Expr_ir.t list option;
      (** [None] when the LFTA reads no payload field. Otherwise the
          conjuncts of its predicate that read no payload field and
          contain no [Call] and no [Param]: every tuple the LFTA can
          accept satisfies them, so its source may copy a payload only
          for packets that do. [Some []] means every packet. *)
}

type shard_tag = {
  sshard : int;  (** which shard this replica is; drives scheduler spreading *)
  sseq : (int * (unit -> int)) option;
      (** select replicas only: position of the appended ["__seq"] column
          and a reader of the next sequence number this replica could
          assign — a firm lower bound the codegen re-publishes as
          punctuation so the reunification merge stays live *)
}

type phys_node = {
  pname : string;  (** registered stream name ("mangled" for helper LFTAs) *)
  pkind : Rts.Node.kind;  (** [Lfta] or [Hfta] *)
  pbody : Plan.body;  (** inputs rebound to the physical graph *)
  pschema : Rts.Schema.t;
  pnic : nic_hint option;  (** LFTAs over a protocol only *)
  ptable_bits : int;
      (** direct-mapped table size for an LFTA aggregation body *)
  pplace : int option;
      (** pinned execution domain for a multi-domain
          {!Gigascope_rts.Scheduler.run}; HFTAs only (LFTAs stay on the
          packet-path domain) *)
  pshard : shard_tag option;
      (** set by {!shard} on the replicas of a sharded chain *)
}

type t = {
  plan : Plan.t;
  phys : phys_node list;  (** topological order; the last node is the query *)
}

val split : Catalog.t -> ?lfta_table_bits:int -> ?placement:int -> Plan.t -> (t, string) result
(** [lfta_table_bits] (default 12, i.e. 4096 slots) sizes LFTA aggregation
    tables; the DEFINE property [lfta_bits] overrides it upstream.
    [placement] pins the query's HFTAs to an execution domain (the DEFINE
    property [placement] sets it upstream). *)

val lower_filter :
  bpf_of_field:(int -> Bpf.Filter.field option) -> Expr_ir.t -> Bpf.Filter.t option
(** Best-effort lowering of a predicate to the filter machine. The result
    accepts a superset of the predicate (conjuncts that cannot lower are
    dropped); [None] when nothing lowers. Exposed for tests. *)

(** {1 Sharded data-parallel execution}

    [shard ~shards split] rewrites an eligible split result into [shards]
    data-parallel replicas of its LFTA, a source-side partitioner
    embedded in each replica's predicate, and a reunification
    {!Plan.Merge} that restores a deterministic stream:

    - a {e pure-LFTA selection} becomes round-robin replicas that append
      a private ["__seq"] arrival-index column, a merge ordered on
      ["__seq"], and an identity select under the original name that
      strips the column — the single-shard output order, byte for byte;
    - a {e sub/super-aggregation} becomes replicas of the sub-aggregating
      LFTA, each owning the group keys that hash to it ([Hash_key];
      round-robin when the epoch is the only key), reunified through a
      merge ordered on the epoch column and registered under the LFTA's
      name — the super-aggregating HFTA re-groups shard partials exactly
      as it re-groups table evictions, so its sorted per-epoch output is
      unchanged.

    Everything else (joins, merges, stream inputs, sampling, expensive
    splits, epoch-less or banded-epoch aggregates, pinned placements)
    returns [Error reason]; the engine reports the reason in the run
    trace rather than silently degrading.

    Caveat: summing floating-point partials regroups additions, so [Sum]/
    [Avg] over a [Float] column is byte-identical only up to the last
    ulp. Integer aggregates — every built-in workload — are exact. *)

type shard_mode = Hash_key | Round_robin

type shard_info = {
  squery : string;  (** the sharded query *)
  smode : shard_mode;
  sshards : int;
  stuples : Gigascope_obs.Metrics.Counter.t array;
      (** tuples accepted per shard, incremented inside the partitioner *)
  sreunify : string;  (** name of the reunification merge node *)
}

val shard : shards:int -> t -> (t * shard_info, string) result
