(** Code generation: the split physical plan becomes running query nodes.

    The real Gigascope generates C that is compiled into the runtime; the
    OCaml analogue compiles each expression once into a closure over the
    input tuple (field indices resolved, handles instantiated), then wires
    the operators into the stream manager. Pass-by-handle arguments are
    prepared here, exactly once per query instantiation.

    Query parameters are held in a mutable environment that the compiled
    closures read, so {!set_param} takes effect on the fly ("similar to
    constants but which can be changed on-the-fly", Section 3) — except for
    handle parameters, whose preprocessing already happened. *)

module Rts = Gigascope_rts

type params = (string, Rts.Value.t) Hashtbl.t

val compile_expr :
  params:params -> Expr_ir.t -> (Rts.Value.t array -> Rts.Value.t, string) result
(** The compiled closure raises {!Rts.Value.No_value} (without a
    backtrace) for "no value": a partial function missed, a parameter is
    unset, arithmetic faulted (division by zero) or an operand has the
    wrong type. The containing tuple is then discarded, per GSQL's
    partial-function semantics. Comparisons and connectives return
    shared [Bool] constants, so they allocate nothing. *)

val compile_pred : params:params -> Expr_ir.t -> (Rts.Value.t array -> bool, string) result
(** Predicate view: "no value" is false. The closure returns [bool]
    without boxing: AND and OR short-circuit left to right, and a
    comparison between an Int/Ip field and an Int/Ip constant compares
    unboxed ints while the field holds an Int or an Ip, falling back to
    the boxed {!compile_expr} closure for any other value. The answer
    is always [Value.is_truthy] of {!compile_expr}'s. *)

type source_binder = {
  bind_source :
    interface:string ->
    protocol:string ->
    nic:Split.nic_hint option ->
    (string, string) result;
      (** Resolve (creating if needed) the source node for
          [interface.protocol], applying the NIC hint; returns the
          registered node name to subscribe to. *)
}

type instance = {
  inst_name : string;  (** the query's registered stream name *)
  out_node : Rts.Node.t;
  node_names : string list;  (** every node this query registered, in order *)
  inst_params : params;
  lfta_aggs : (string * Rts.Lfta_aggregate.t) list;
  hfta_aggs : (string * Rts.Aggregate.t) list;
  merges : (string * Rts.Merge_op.t) list;
  joins : (string * Rts.Join_op.t) list;
}

val set_param : instance -> string -> Rts.Value.t -> unit

val install :
  Rts.Manager.t ->
  source_binder:source_binder ->
  ?params:(string * Rts.Value.t) list ->
  ?seed:int ->
  ?chan_capacity:(string -> int option) ->
  Split.t ->
  (instance, string) result
(** Registers every physical node with the stream manager. [seed] feeds the
    sampling operator. [chan_capacity] maps a physical node name to the
    input-ring capacity it needs (certified-burst auto-sizing; the
    manager only grows past its default). Fails without side effects on
    expression-compile errors; node-registration failures may leave
    earlier nodes registered. *)
