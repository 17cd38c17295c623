(** The GSQL compiler driver: text -> parsed -> analyzed -> split.

    A program may interleave PROTOCOL definitions and queries; queries see
    the output schemas of queries compiled before them (composition by
    name, Section 2.2). Installation into a running stream manager is a
    separate step ({!Codegen.install}) so a compiled program can be
    explained without running. *)

type compiled = {
  plan : Plan.t;
  split : Split.t;
  helpers : compiled list;
      (** hoisted FROM-clause subqueries, to be installed before this
          query (already flattened: helpers have no helpers) *)
}

val compile_program :
  Catalog.t ->
  ?default_interface:string ->
  ?lfta_table_bits:int ->
  string ->
  (compiled list, string) result
(** Compile every query in the program, registering each output schema in
    the catalog as it goes. Unnamed queries get [q0], [q1], ... A
    query's DEFINE section may set three properties: [query_name], a
    non-empty name; [lfta_bits], the log2 size of its LFTA aggregation tables, an integer
    in 0..24 (default [lfta_table_bits], 12); and [join_output], whose
    one value [ordered] selects the buffered join release. Any other
    property, or a value failing its check, is an [Error] naming the
    property and its value. *)

val compile_query :
  Catalog.t ->
  ?default_interface:string ->
  ?lfta_table_bits:int ->
  ?name:string ->
  string ->
  (compiled, string) result
(** Compile a single query (errors if the text holds more than one). Its
    DEFINE properties are checked as in {!compile_program}. *)

val explain : ?memory:bool -> compiled -> string
(** Human-readable report: the logical plan, imputed ordering properties,
    the LFTA/HFTA split, NIC hints, and generated pseudo-C. With
    [~memory:true], the {!Certify} derivation (per-operator state
    bounds or the unbounded diagnostic) is included. *)
