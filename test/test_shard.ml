(* The sharded-execution determinism harness.

   Engine.create ~shards:N replicates every eligible LFTA chain N ways
   behind a source-side partitioner and reunifies the replicas through
   an order-preserving merge. The claim under test — the property that
   makes sharding deployable at all — is that the subscriber output of
   every query is byte-identical to the unsharded engine's: not
   multiset-equal, identical in order, for every workload, shard count,
   batch size and domain count, separately and combined.

   The matrix: every differential workload (test/workloads.ml) × three
   generator seeds × shards {2,4} × batch {1,64} × single-threaded and
   multi-domain. Below it, the pieces in isolation: the hash
   partitioner's algebra, Agg_fn.merge_partial's split/merge laws for
   every aggregate kind, the rts.shard.* metrics, the splitter's
   refusal reasons, and the GIGASCOPE_SHARDS warn-and-degrade knob. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Gsql = Gigascope_gsql
module Value = Rts.Value
module Agg = Rts.Agg_fn
module Metrics = Gigascope_obs.Metrics

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

open Workloads

(* ------------------------- the differential ----------------------------- *)

(* (shards, domains, batch): each knob alone, then stacked. The
   single-threaded shard runs catch partitioner/merge bugs; the
   multi-domain runs catch cross-domain ones (each shard chain lands on
   its own domain); batching catches batch-seal interactions with the
   appended __seq punctuation. *)
let configs_full = [ (2, 1, 1); (4, 1, 1); (2, 1, 64); (4, 1, 64); (2, 2, 1); (4, 2, 64); (4, 5, 64) ]
let configs_quick = [ (2, 1, 1); (4, 2, 64) ]

let test_differential w () =
  List.iter
    (fun (seed, configs) ->
      let baseline, _ = exec w ~seed ~parallel:1 ~batch:1 ~shards:1 () in
      List.iter
        (fun (shards, domains, batch) ->
          let got, _ = exec w ~seed ~parallel:domains ~batch ~shards () in
          assert_same
            ~label:
              (Printf.sprintf "%s seed=%d shards=%d domains=%d batch=%d" w.wname seed
                 shards domains batch)
            baseline got)
        configs)
    [ (42, configs_full); (11, configs_quick); (77, configs_quick) ]

(* ------------------------- the hash partitioner ------------------------- *)

(* The owner computation the splitter embeds in each replica's
   predicate, verbatim. *)
let owner ~shards key = Value.hash_array key land max_int mod shards

let test_partitioner_stability () =
  let keys =
    [
      [| Value.Int 0 |];
      [| Value.Int max_int |];
      [| Value.Int min_int |];
      [| Value.Ip 0xC0A80101; Value.Int 80 |];
      [| Value.Str "alpha"; Value.Null |];
      [| Value.Float 1.5; Value.Bool true |];
    ]
  in
  List.iter
    (fun key ->
      List.iter
        (fun shards ->
          let first = owner ~shards key in
          check Alcotest.bool "owner in range" true (first >= 0 && first < shards);
          for _ = 1 to 10 do
            (* same key, same owner, every evaluation: a key that migrates
               between shards splits its group *)
            check Alcotest.int "owner stable" first (owner ~shards key)
          done)
        [ 2; 3; 4; 7 ])
    keys

let test_partitioner_coverage () =
  (* every key has exactly one owner: summing each shard's acceptance
     over all shards covers each key once, no drops, no duplicates *)
  let shards = 4 in
  for i = 0 to 999 do
    let key = [| Value.Int (i * 7919); Value.Ip (i * 104729) |] in
    let owners = List.init shards (fun me -> if owner ~shards key = me then 1 else 0) in
    check Alcotest.int
      (Printf.sprintf "key %d owned exactly once" i)
      1
      (List.fold_left ( + ) 0 owners)
  done

let test_partitioner_distribution () =
  (* distinct keys spread: no shard starves or hoards (loose 10%–50%
     bounds on a 4-way split of 1000 uniform keys) *)
  let shards = 4 in
  let counts = Array.make shards 0 in
  for i = 0 to 999 do
    let key = [| Value.Int i; Value.Str (string_of_int (i * 31)) |] in
    let o = owner ~shards key in
    counts.(o) <- counts.(o) + 1
  done;
  Array.iteri
    (fun i c ->
      check Alcotest.bool (Printf.sprintf "shard %d got %d of 1000" i c) true
        (c >= 100 && c <= 500))
    counts;
  (* a skewed stream — one hot key — lands on exactly one shard: the
     partitioner cannot split a group, that is the point (the skew gauge
     exists to make the resulting imbalance visible) *)
  let hot = [| Value.Ip 0x0A000001; Value.Int 443 |] in
  let hot_owner = owner ~shards hot in
  for _ = 1 to 100 do
    check Alcotest.int "hot key pinned" hot_owner (owner ~shards hot)
  done

(* ------------------------ merge_partial's laws -------------------------- *)

let value_t = Alcotest.testable Value.pp Value.equal

(* Splitting a value sequence across accumulators and merging must be
   indistinguishable from stepping the whole sequence into one — for
   every kind, every split point (including empty sides), Nulls
   skipped. Floats chosen dyadic so even Sum/Avg are exact here. *)
let test_merge_partial_laws () =
  let int_vs = List.map (fun i -> Value.Int i) [ 5; -3; 12; 0; 7; -3; 99; 1 ] in
  let float_vs =
    List.map (fun f -> Value.Float f) [ 0.5; -1.25; 3.0; 0.0; 2.75; 10.5 ]
  in
  let with_nulls = [ Value.Null; Value.Int 4; Value.Null; Value.Int (-9); Value.Int 4 ] in
  let sequences = [ ("ints", int_vs); ("floats", float_vs); ("nulls", with_nulls); ("empty", []) ] in
  let feed acc vs =
    List.iter (fun v -> Agg.step acc v) vs
  in
  List.iter
    (fun kind ->
      List.iter
        (fun (vname, vs) ->
          let whole = Agg.init kind in
          feed whole vs;
          let expected = Agg.final whole in
          let n = List.length vs in
          for cut = 0 to n do
            let left = List.filteri (fun i _ -> i < cut) vs in
            let right = List.filteri (fun i _ -> i >= cut) vs in
            let a = Agg.init kind and b = Agg.init kind in
            feed a left;
            feed b right;
            Agg.merge_partial a b;
            check value_t
              (Printf.sprintf "%s %s split@%d" (Agg.kind_to_string kind) vname cut)
              expected (Agg.final a)
          done;
          (* element-wise: N singleton accumulators merged in order *)
          let acc = Agg.init kind in
          List.iter
            (fun v ->
              let one = Agg.init kind in
              feed one [ v ];
              Agg.merge_partial acc one)
            vs;
          check value_t
            (Printf.sprintf "%s %s element-wise" (Agg.kind_to_string kind) vname)
            expected (Agg.final acc))
        sequences)
    [ Agg.Count; Agg.Sum; Agg.Min; Agg.Max; Agg.Avg ]

(* ------------------------- shard observability -------------------------- *)

let test_shard_metrics () =
  let w = List.find (fun w -> w.wname = "subnet_volume") workloads in
  let engine = E.create ~shards:4 () in
  check Alcotest.int "shards accessor" 4 (E.shards engine);
  w.setup ~seed:42 engine;
  ignore (Result.get_ok (E.install_program engine (w.program ())));
  (match E.run engine () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("run: " ^ e));
  let snap = E.metrics_snapshot engine in
  let counter name =
    match Metrics.find snap name with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "missing counter %s" name
  in
  let per_shard =
    List.init 4 (fun i -> counter (Printf.sprintf "rts.shard.subnet_volume.%d.tuples" i))
  in
  check Alcotest.bool "shards saw tuples" true (List.fold_left ( + ) 0 per_shard > 0);
  (match Metrics.find snap "rts.shard.subnet_volume.skew" with
  | Some (Metrics.Gauge g) ->
      (* max/mean ratio: >= 1 by construction, small for hash-spread keys *)
      check Alcotest.bool "skew gauge sane" true (g >= 1.0 && g <= 4.0)
  | _ -> Alcotest.fail "missing skew gauge");
  (match Metrics.find snap "rts.shard.subnet_volume.reunify.buffered" with
  | Some (Metrics.Gauge _) -> ()
  | _ -> Alcotest.fail "missing reunify merge metrics");
  let report = E.shard_report engine in
  check Alcotest.bool "report names the query" true (contains report "subnet_volume");
  check Alcotest.bool "report names the mode" true (contains report "hash-partitioned");
  check Alcotest.bool "report in trace_report" true
    (contains (E.trace_report engine) "hash-partitioned")

(* ------------------------ splitter-level modes -------------------------- *)

(* A pure select has no group key: the splitter must fall back to
   round-robin with a full reunification merge AND say so in the
   report — silently choosing round-robin would hide that the merge
   re-serializes the whole stream. *)
let test_keyless_round_robin_reported () =
  let w = List.find (fun w -> w.wname = "tcpdest") workloads in
  let engine = E.create ~shards:2 () in
  w.setup ~seed:42 engine;
  ignore (Result.get_ok (E.install_program engine (w.program ())));
  let report = E.shard_report engine in
  check Alcotest.bool "tcpdest0 round-robin flagged" true
    (contains report "tcpdest0: 2 replicas, keyless plan: round-robin");
  (* the replicas and the reunification merge are real registered nodes *)
  let mgr = E.manager engine in
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " registered") true (Rts.Manager.find mgr n <> None))
    [ "_shard_tcpdest0_0"; "_shard_tcpdest0_1"; "_shard_tcpdest0"; "tcpdest0" ]

(* Joins (and aggregations over already-derived streams) cannot shard;
   the engine installs them unchanged and the report says why. *)
let test_unshardable_reported () =
  let w = List.find (fun w -> w.wname = "ordered_join") workloads in
  let engine = E.create ~shards:2 () in
  w.setup ~seed:42 engine;
  ignore (Result.get_ok (E.install_program engine (w.program ())));
  let report = E.shard_report engine in
  check Alcotest.bool "join refusal reported" true (contains report "matched: not sharded");
  (* and the unsharded engine reports nothing at all *)
  check Alcotest.string "unsharded report empty" "" (E.shard_report (E.create ~shards:1 ()))

(* ----------------------- the GIGASCOPE_SHARDS knob ---------------------- *)

let with_env name value body =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:"")) body

(* Same warn-and-degrade contract as GIGASCOPE_PARALLEL/BATCH: a
   malformed value must not be silently honoured as something else, and
   must not take the engine down either. *)
let test_env_knob () =
  with_env "GIGASCOPE_SHARDS" "banana" (fun () ->
      check Alcotest.int "garbage degrades to 1" 1 (E.shards (E.create ())));
  with_env "GIGASCOPE_SHARDS" "-3" (fun () ->
      check Alcotest.int "negative degrades to 1" 1 (E.shards (E.create ())));
  with_env "GIGASCOPE_SHARDS" "0" (fun () ->
      check Alcotest.int "zero degrades to 1" 1 (E.shards (E.create ())));
  with_env "GIGASCOPE_SHARDS" "" (fun () ->
      check Alcotest.int "empty means unset" 1 (E.shards (E.create ())));
  with_env "GIGASCOPE_SHARDS" "3" (fun () ->
      check Alcotest.int "clean value honoured" 3 (E.shards (E.create ()));
      check Alcotest.int "explicit arg overrides env" 2 (E.shards (E.create ~shards:2 ())))

(* run ~shards is a guard: sharding is fixed at create time, so a
   disagreeing value is an error, never a silent no-op *)
let test_run_shards_guard () =
  let engine = E.create ~shards:2 () in
  (match E.run engine ~shards:4 () with
  | Ok _ -> Alcotest.fail "run ~shards:4 on a 2-shard engine accepted"
  | Error e -> check Alcotest.bool "error explains" true (contains e "created with shards=2"));
  match E.run engine ~shards:2 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("agreeing run ~shards rejected: " ^ e)

(* -------------------------------- suite --------------------------------- *)

let () =
  let wcase name f = List.map (fun w -> Alcotest.test_case (w.wname ^ name) `Slow (f w)) workloads in
  Alcotest.run "shard"
    [
      ("differential", wcase " shards diff" test_differential);
      ( "partitioner",
        [
          Alcotest.test_case "stability" `Quick test_partitioner_stability;
          Alcotest.test_case "coverage" `Quick test_partitioner_coverage;
          Alcotest.test_case "distribution" `Quick test_partitioner_distribution;
        ] );
      ("merge_partial", [ Alcotest.test_case "laws" `Quick test_merge_partial_laws ]);
      ( "observability",
        [
          Alcotest.test_case "metrics" `Quick test_shard_metrics;
          Alcotest.test_case "keyless round-robin" `Quick test_keyless_round_robin_reported;
          Alcotest.test_case "unshardable" `Quick test_unshardable_reported;
        ] );
      ( "knobs",
        [
          Alcotest.test_case "env" `Quick test_env_knob;
          Alcotest.test_case "run guard" `Quick test_run_shards_guard;
        ] );
    ]
