(* Tests for the runtime system: values, schemas, ordering properties,
   operators (with offline oracles), the two-level aggregation equivalence,
   the stream manager, and the scheduler. *)

module Rts = Gigascope_rts
module Value = Rts.Value
module Ty = Rts.Ty
module Schema = Rts.Schema
module Item = Rts.Item
module Order_prop = Rts.Order_prop
module Agg_fn = Rts.Agg_fn
module Prng = Gigascope_util.Prng

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let vint i = Value.Int i

(* hand an operator one item, as a singleton batch through the loop
   Node.step_inputs runs *)
let feed op ~input item ~emit = Rts.Node.feed op ~input (Rts.Batch.of_item item) ~emit

(* run an operator over a list of items, collecting emissions *)
let run_op ?(input = 0) op items =
  let out = ref [] in
  let emit item = out := item :: !out in
  List.iter (fun item -> feed op ~input item ~emit) items;
  List.rev !out

let tuples items = List.filter_map (function Item.Tuple t -> Some t | _ -> None) items

(* ------------------------------- Value --------------------------------- *)

let test_value_compare () =
  check Alcotest.bool "int order" true (Value.compare (vint 1) (vint 2) < 0);
  check Alcotest.bool "int/float mix" true (Value.compare (vint 2) (Value.Float 1.5) > 0);
  check Alcotest.bool "float/int equal" true (Value.compare (Value.Float 2.0) (vint 2) = 0);
  check Alcotest.bool "strings" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  check Alcotest.bool "null first" true (Value.compare Value.Null (vint 0) < 0)

let value_equal_hash_consistent =
  qtest "equal values hash equally" QCheck.(pair int int) (fun (a, b) ->
      let va = vint a and vb = vint b in
      (not (Value.equal va vb)) || Value.hash va = Value.hash vb)

let test_value_truthy () =
  check Alcotest.bool "bool true" true (Value.is_truthy (Value.Bool true));
  check Alcotest.bool "zero" false (Value.is_truthy (vint 0));
  check Alcotest.bool "nonzero" true (Value.is_truthy (vint 3));
  check Alcotest.bool "null" false (Value.is_truthy Value.Null);
  check Alcotest.bool "string" false (Value.is_truthy (Value.Str "x"))

let test_value_arrays () =
  let a = [| vint 1; Value.Str "x" |] and b = [| vint 1; Value.Str "x" |] in
  check Alcotest.bool "array equal" true (Value.equal_array a b);
  check Alcotest.bool "array hash equal" true (Value.hash_array a = Value.hash_array b);
  check Alcotest.bool "length mismatch" false (Value.equal_array a [| vint 1 |]);
  (* The key hash picks LFTA slots and HFTA group buckets; pin its values
     so a rewrite cannot move groups between slots unnoticed. *)
  check
    Alcotest.(list int)
    "hash_array values"
    [ 0; 867482208226; 24039590879032; 899068723058405 ]
    (List.map Value.hash_array
       [
         [||];
         [| vint 1; Value.Ip 0x0a000001; Value.Null |];
         [| Value.Str "x"; Value.Float 1.5; Value.Bool true; vint (-7) |];
         [| vint 1_000_000; Value.Ip 0xc0a80000; vint 80; vint 443; vint 6 |];
       ])

(* ----------------------------- Order_prop ------------------------------ *)

let test_order_weaken () =
  let open Order_prop in
  check Alcotest.string "strict+strict" (to_string (Strict Asc)) (to_string (weaken (Strict Asc) (Strict Asc)));
  check Alcotest.string "strict+monotone" (to_string (Monotone Asc))
    (to_string (weaken (Strict Asc) (Monotone Asc)));
  check Alcotest.string "banded widest" (to_string (Banded (Asc, 30.0)))
    (to_string (weaken (Banded (Asc, 30.0)) (Monotone Asc)));
  check Alcotest.string "opposite directions" (to_string Unordered)
    (to_string (weaken (Monotone Asc) (Monotone Desc)));
  check Alcotest.string "unordered absorbs" (to_string Unordered)
    (to_string (weaken Unordered (Strict Asc)))

let test_order_usability () =
  let open Order_prop in
  check Alcotest.bool "monotone usable" true (usable_for_epoch (Monotone Asc));
  check Alcotest.bool "banded usable" true (usable_for_window (Banded (Asc, 5.0)));
  check Alcotest.bool "nonrepeating not usable" false (usable_for_epoch Nonrepeating);
  check Alcotest.bool "in-group not usable" false (usable_for_window (In_group (["a"], Asc)))

let test_order_arithmetic_imputation () =
  let open Order_prop in
  check Alcotest.string "strict loses strictness" (to_string (Monotone Asc))
    (to_string (imputed_through_arithmetic (Strict Asc) ~monotone_fn:true));
  check Alcotest.string "non-monotone fn destroys" (to_string Unordered)
    (to_string (imputed_through_arithmetic (Strict Asc) ~monotone_fn:false))

(* ------------------------------- Schema -------------------------------- *)

let mk_schema () =
  Schema.make
    [
      { Schema.name = "ts"; ty = Ty.Int; order = Order_prop.Monotone Order_prop.Asc };
      { Schema.name = "Port"; ty = Ty.Int; order = Order_prop.Unordered };
    ]

let test_schema_lookup () =
  let s = mk_schema () in
  check Alcotest.(option int) "case-insensitive" (Some 1) (Schema.field_index s "port");
  check Alcotest.(option int) "exact" (Some 0) (Schema.field_index s "ts");
  check Alcotest.(option int) "missing" None (Schema.field_index s "nope")

let test_schema_duplicates () =
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Schema.make: duplicate field X") (fun () ->
      ignore
        (Schema.make
           [
             { Schema.name = "x"; ty = Ty.Int; order = Order_prop.Unordered };
             { Schema.name = "X"; ty = Ty.Int; order = Order_prop.Unordered };
           ]))

let test_schema_concat () =
  let s = Schema.concat (mk_schema ()) (mk_schema ()) in
  check Alcotest.int "arity" 4 (Schema.arity s);
  check Alcotest.(option int) "suffixed clash" (Some 2) (Schema.field_index s "ts_2")

let test_schema_ordered_fields () =
  let s = mk_schema () in
  check Alcotest.int "one ordered field" 1 (List.length (Schema.ordered_fields s))

(* ----------------------------- Select op ------------------------------- *)

let test_select_filter_project () =
  let op =
    Rts.Select_op.make
      ~pred:(fun t -> Value.compare t.(1) (vint 10) > 0)
      ~project:(fun t -> Some [| t.(0) |])
      ~punct_map:[(0, 0)] ()
  in
  let items =
    [
      Item.Tuple [| vint 1; vint 5 |];
      Item.Tuple [| vint 2; vint 20 |];
      Item.Punct [(0, vint 2); (1, vint 99)];
      Item.Tuple [| vint 3; vint 30 |];
      Item.Eof;
    ]
  in
  let out = run_op op items in
  check Alcotest.int "two tuples pass" 2 (List.length (tuples out));
  (match List.nth out 1 with
  | Item.Punct [(0, Value.Int 2)] -> ()
  | _ -> Alcotest.fail "punct should translate field 0 only, dropping field 1");
  match List.rev out with Item.Eof :: _ -> () | _ -> Alcotest.fail "eof forwarded"

let test_select_partial_projection () =
  let op =
    Rts.Select_op.make
      ~project:(fun t -> if Value.is_truthy t.(0) then Some t else None)
      ~punct_map:[] ()
  in
  let out = run_op op [Item.Tuple [| vint 0 |]; Item.Tuple [| vint 1 |]; Item.Eof] in
  check Alcotest.int "partial projection discards" 1 (List.length (tuples out))

(* --------------------------- HFTA aggregation -------------------------- *)

(* group by (ts/10, key), count + sum(v); input ts nondecreasing *)
let agg_config ?(band = 0.0) ?having () =
  {
    Rts.Aggregate.pred = None;
    keys =
      [|
        (fun t -> match t.(0) with Value.Int ts -> vint (ts / 10) | _ -> raise Value.No_value);
        (fun t -> t.(1));
      |];
    epoch_key = Some 0;
    direction = Order_prop.Asc;
    band;
    aggs =
      [|
        { Agg_fn.kind = Agg_fn.Count; arg = None };
        { Agg_fn.kind = Agg_fn.Sum; arg = Some (fun t -> t.(2)) };
      |];
    assemble = Array.copy;
    having;
    epoch_out = Some 0;
    punct_in = Some (0, fun v -> match v with Value.Int ts -> Some (vint (ts / 10)) | _ -> None);
  }

let mk_rows seed n =
  (* nondecreasing timestamps, few keys *)
  let rng = Prng.create seed in
  let ts = ref 0 in
  List.init n (fun _ ->
      ts := !ts + Prng.int rng 3;
      [| vint !ts; vint (Prng.int rng 4); vint (Prng.int rng 100) |])

(* A row as text, each value tagged with its constructor. *)
let show_row row =
  String.concat ","
    (Array.to_list
       (Array.map
          (fun v ->
            let ctor =
              match v with
              | Value.Null -> "null"
              | Value.Bool _ -> "bool"
              | Value.Int _ -> "int"
              | Value.Float _ -> "float"
              | Value.Str _ -> "str"
              | Value.Ip _ -> "ip"
              | Value.Sketch _ -> "sketch"
            in
            ctor ^ ":" ^ Value.to_string v)
          row))

(* The reference the HFTA is held to: open groups in a list, grouped by
   [Value.equal_array] with the first tuple's key as the group's; a
   close emits the closing groups by epoch in stream order, then by
   polymorphic [compare] on the key, through HAVING. It shares no code
   with the operator's table. *)
let reference_hfta (cfg : Rts.Aggregate.config) items =
  let out = ref [] and groups = ref [] and high_water = ref None and done_ = ref false in
  let dir = match cfg.direction with Order_prop.Asc -> 1 | Order_prop.Desc -> -1 in
  let ahead a b = dir * Value.compare a b > 0 in
  let epoch key = match cfg.epoch_key with Some ek -> key.(ek) | None -> Value.Null in
  let close closing =
    let shut, kept = List.partition (fun (key, _, _) -> closing key) !groups in
    groups := kept;
    let order (ka, _, _) (kb, _, _) =
      let c = dir * Value.compare (epoch ka) (epoch kb) in
      if c <> 0 then c else compare ka kb
    in
    List.iter
      (fun (key, count, sum) ->
        let virt = Array.append key [| vint !count; Agg_fn.final sum |] in
        if match cfg.having with None -> true | Some h -> h virt then
          out := Item.Tuple (cfg.assemble virt) :: !out)
      (List.stable_sort order (List.rev shut))
  in
  let behind thr key = cfg.epoch_key <> None && ahead thr (epoch key) in
  List.iter
    (function
      | Item.Tuple values -> (
          if match cfg.pred with Some p -> p values | None -> true then
            match Array.map (fun f -> f values) cfg.keys with
            | exception Value.No_value -> ()
            | key ->
                (if cfg.epoch_key <> None then
                   let v = epoch key in
                   match !high_water with
                   | Some hw when not (ahead v hw) -> ()
                   | _ ->
                       high_water := Some v;
                       let thr =
                         Rts.Aggregate.behind_threshold ~direction:cfg.direction ~band:cfg.band v
                       in
                       close (behind thr));
                let count, sum =
                  match List.find_opt (fun (k, _, _) -> Value.equal_array k key) !groups with
                  | Some (_, count, sum) -> (count, sum)
                  | None ->
                      let g = (key, ref 0, Agg_fn.init Agg_fn.Sum) in
                      groups := g :: !groups;
                      let _, count, sum = g in
                      (count, sum)
                in
                incr count;
                Agg_fn.step_tuple cfg.aggs.(1) sum values)
      | Item.Punct bounds -> (
          match (cfg.punct_in, cfg.epoch_key) with
          | Some (field, translate), Some _ -> (
              match Option.bind (List.assoc_opt field bounds) translate with
              | Some bound ->
                  close (behind bound);
                  Option.iter (fun o -> out := Item.Punct [ (o, bound) ] :: !out) cfg.epoch_out
              | None -> ())
          | _ -> ())
      | Item.Flush ->
          close (fun _ -> true);
          out := Item.Flush :: !out
      | Item.Eof ->
          if not !done_ then begin
            done_ := true;
            close (fun _ -> true);
            out := Item.Eof :: !out
          end
      | ctrl -> out := ctrl :: !out)
    items;
  List.rev !out

let show_item = function
  | Item.Tuple row -> show_row row
  | Item.Punct [ (i, v) ] -> Printf.sprintf "punct %d %s" i (Value.to_string v)
  | Item.Flush -> "flush"
  | Item.Eof -> "eof"
  | _ -> "other"

(* Keys of every kind in one column. No Float equals an Int here: the
   table groups by hash and [Value.equal], the reference by
   [Value.equal] alone, and [Int 1] and [Float 1.0] hash apart. *)
let key_pool =
  [|
    Value.Null; vint 1; vint 2; vint (-7); Value.Ip 1; Value.Ip 9; Value.Float 0.5; Value.Float 0.0;
    Value.Float (-0.0); Value.Float Float.nan; Value.Str "a"; Value.Str "b"; Value.Bool false;
    Value.Str "miss";
  |]

let hfta_agg_matches_oracle =
  let gen =
    QCheck.Gen.(
      let* epoch_key = bool and* desc = bool and* band = int_range 0 1 and* having = bool in
      let* steps =
        list_size (int_range 0 80)
          (frequency
             [
               (12, map3 (fun d k v -> `Tuple (d, k, v)) (int_range (-1) 2) (oneofa key_pool)
                      (oneofa [| vint 3; Value.Null; Value.Float 0.25 |]));
               (1, map (fun d -> `Punct d) (int_range (-2) 1));
               (1, return `Flush);
             ])
      in
      return (epoch_key, desc, band, having, steps))
  in
  let print (epoch_key, desc, band, having, steps) =
    Printf.sprintf "epoch %b desc %b band %d having %b: %d steps" epoch_key desc band having
      (List.length steps)
  in
  qtest ~count:500 "HFTA aggregation = offline group-by" (QCheck.make ~print gen)
    (fun (epoch_key, desc, band, having, steps) ->
      let dir = if desc then -1 else 1 in
      (* epochs move with the stream, now and then one or two behind *)
      let e = ref 0 in
      let items =
        List.map
          (function
            | `Tuple (d, k, v) ->
                e := !e + (dir * max d 0);
                Item.Tuple [| vint (!e - (dir * max (-d) 0)); k; v |]
            | `Punct d -> Item.Punct [ (0, vint (!e + (dir * d))) ]
            | `Flush -> Item.Flush)
          steps
        @ [ Item.Eof ]
      in
      let cfg =
        {
          Rts.Aggregate.pred = None;
          keys =
            [|
              (fun t -> t.(0));
              (fun t -> match t.(1) with Value.Str "miss" -> raise Value.No_value | v -> v);
            |];
          epoch_key = (if epoch_key then Some 0 else None);
          direction = (if desc then Order_prop.Desc else Order_prop.Asc);
          band = float_of_int band;
          aggs =
            [|
              { Agg_fn.kind = Agg_fn.Count; arg = None };
              { Agg_fn.kind = Agg_fn.Sum; arg = Some (fun t -> t.(2)) };
            |];
          assemble = Array.copy;
          having =
            (if having then Some (fun virt -> Value.compare virt.(2) (vint 1) > 0) else None);
          epoch_out = (if epoch_key then Some 0 else None);
          punct_in = (if epoch_key then Some (0, fun v -> Some v) else None);
        }
      in
      let got = run_op (Rts.Aggregate.op (Rts.Aggregate.make cfg)) items in
      List.map show_item got = List.map show_item (reference_hfta cfg items))

(* Without an epoch key the groups close only at Flush or Eof, in
   polymorphic [compare] order of their keys. *)
let test_agg_no_epoch_key_order () =
  let cfg =
    {
      (agg_config ()) with
      Rts.Aggregate.keys = [| (fun t -> t.(1)) |];
      epoch_key = None;
      epoch_out = None;
      punct_in = None;
    }
  in
  let keys =
    [ Value.Str "b"; vint 3; Value.Ip 1; Value.Null; vint (-2); Value.Float 0.5; Value.Bool true; Value.Str "a" ]
  in
  let out =
    run_op
      (Rts.Aggregate.op (Rts.Aggregate.make cfg))
      (List.map (fun k -> Item.Tuple [| vint 0; k; vint 1 |]) keys @ [ Item.Eof ])
  in
  check
    Alcotest.(list string)
    "keys in compare order"
    [ "null"; "true"; "-2"; "3"; "0.5"; "\"a\""; "\"b\""; "0.0.0.1" ]
    (List.map (fun t -> Value.to_string t.(0)) (tuples out))

(* The comparator the HFTA sorts a closing epoch with agrees with
   polymorphic [compare] on the key arrays, kinds mixed in a column. *)
let group_table_compare_law =
  let pool =
    [|
      Value.Null; Value.Bool false; Value.Bool true; vint 0; vint 1; vint (-1); vint min_int; vint max_int;
      Value.Float 1.0; Value.Float (-0.0); Value.Float 0.0; Value.Float Float.nan;
      Value.Float Float.infinity; Value.Float (-2.5); Value.Str ""; Value.Str "a"; Value.Str "ab";
      Value.Ip 0; Value.Ip 1; Value.Ip 0xffffffff;
    |]
  in
  let gen =
    QCheck.Gen.(
      let* width = int_range 0 3 in
      list_size (int_range 1 12) (array_size (return width) (oneofa pool)))
  in
  let print rows = String.concat " | " (List.map show_row rows) in
  qtest ~count:500 "group table comparator = compare" (QCheck.make ~print gen) (fun rows ->
      let rows = Array.of_list rows in
      let width = Array.length rows.(0) in
      let module G = Rts.Group_table in
      let tbl = G.create ~keys:width ~slots:(Array.length rows) in
      let key = G.make_key width in
      let reads = Array.init width (fun i (t : Value.t array) -> t.(i)) in
      Array.iteri
        (fun slot row ->
          ignore (G.read_key key reads row ~epoch:(-1));
          ignore (G.insert tbl slot key [||]))
        rows;
      let sign x = compare x 0 in
      let agree = ref true in
      Array.iteri
        (fun a ra ->
          Array.iteri
            (fun b rb -> if sign (G.compare_slots tbl a b) <> sign (compare ra rb) then agree := false)
            rows)
        rows;
      (* and [sort], which carries a primary key beside the slots, puts
         them in the same order *)
      let n = Array.length rows in
      let sorted = G.sort tbl (Array.init n Fun.id) n in
      !agree
      && List.sort compare (Array.to_list sorted) = List.init n Fun.id
      (* [compare], not [=]: nan is not [=] to itself *)
      && compare
           (List.map (fun s -> rows.(s)) (Array.to_list sorted))
           (List.stable_sort compare (Array.to_list rows))
         = 0)

let test_agg_epoch_flushes_incrementally () =
  let agg = Rts.Aggregate.make (agg_config ()) in
  let op = Rts.Aggregate.op agg in
  let out1 = run_op op [Item.Tuple [| vint 5; vint 0; vint 1 |]] in
  check Alcotest.int "nothing emitted within epoch" 0 (List.length out1);
  let out2 = run_op op [Item.Tuple [| vint 15; vint 0; vint 1 |]] in
  check Alcotest.int "epoch advance flushes closed group" 1 (List.length (tuples out2));
  check Alcotest.int "one group open" 1 (Rts.Aggregate.open_groups agg)

let test_agg_output_epoch_order () =
  (* closed groups come out sorted by epoch key *)
  let agg = Rts.Aggregate.make (agg_config ()) in
  let op = Rts.Aggregate.op agg in
  let rows =
    [
      [| vint 5; vint 1; vint 0 |]; [| vint 12; vint 0; vint 0 |]; [| vint 25; vint 2; vint 0 |];
      [| vint 33; vint 1; vint 0 |];
    ]
  in
  let out = run_op op (List.map (fun r -> Item.Tuple r) rows @ [Item.Eof]) in
  let epochs =
    List.filter_map (fun t -> match t.(0) with Value.Int e -> Some e | _ -> None) (tuples out)
  in
  check Alcotest.(list int) "monotone epoch output" (List.sort compare epochs) epochs

let test_agg_punct_flush_and_translate () =
  let agg = Rts.Aggregate.make (agg_config ()) in
  let op = Rts.Aggregate.op agg in
  ignore (run_op op [Item.Tuple [| vint 5; vint 0; vint 7 |]]);
  let out = run_op op [Item.Punct [(0, vint 20)]] in
  check Alcotest.int "punct closes passed groups" 1 (List.length (tuples out));
  match List.rev out with
  | Item.Punct [(0, Value.Int 2)] :: _ -> ()
  | _ -> Alcotest.fail "output punct should carry translated bound 20/10=2"

let test_agg_having () =
  let having virt = match virt.(2) with Value.Int c -> c >= 2 | _ -> false in
  let agg = Rts.Aggregate.make (agg_config ~having ()) in
  let op = Rts.Aggregate.op agg in
  let rows = [[| vint 1; vint 0; vint 1 |]; [| vint 2; vint 0; vint 1 |]; [| vint 3; vint 1; vint 1 |]] in
  let out = run_op op (List.map (fun r -> Item.Tuple r) rows @ [Item.Eof]) in
  check Alcotest.int "having filters singleton group" 1 (List.length (tuples out))

let test_agg_banded_keeps_groups_open () =
  (* band 1 in epoch units: epoch e closes only when the frontier passes
     e + 1 *)
  let agg = Rts.Aggregate.make (agg_config ~band:1.0 ()) in
  let op = Rts.Aggregate.op agg in
  ignore (run_op op [Item.Tuple [| vint 5; vint 0; vint 1 |]]);
  let out = run_op op [Item.Tuple [| vint 15; vint 0; vint 1 |]] in
  check Alcotest.int "within band: no flush yet" 0 (List.length (tuples out));
  (* a late tuple for the old epoch still lands in its group *)
  ignore (run_op op [Item.Tuple [| vint 8; vint 0; vint 1 |]]);
  let out2 = run_op op [Item.Tuple [| vint 29; vint 0; vint 1 |]] in
  let flushed = tuples out2 in
  check Alcotest.int "band passed: old epoch flushed" 1 (List.length flushed);
  match (List.hd flushed).(2) with
  | Value.Int c -> check Alcotest.int "late tuple was counted" 2 c
  | _ -> Alcotest.fail "bad count"

let test_agg_partial_key_discards () =
  let cfg = agg_config () in
  let cfg =
    { cfg with Rts.Aggregate.keys = [| (fun _ -> raise Value.No_value); (fun t -> t.(1)) |];
               epoch_key = None; epoch_out = None; punct_in = None }
  in
  let agg = Rts.Aggregate.make cfg in
  let out = run_op (Rts.Aggregate.op agg) [Item.Tuple [| vint 1; vint 2; vint 3 |]; Item.Eof] in
  check Alcotest.int "partial key discards tuple" 0 (List.length (tuples out))

let test_agg_no_epoch_flushes_at_eof_only () =
  let cfg = { (agg_config ()) with Rts.Aggregate.epoch_key = None; epoch_out = None; punct_in = None } in
  let agg = Rts.Aggregate.make cfg in
  let op = Rts.Aggregate.op agg in
  let out1 = run_op op [Item.Tuple [| vint 5; vint 0; vint 1 |]; Item.Tuple [| vint 500; vint 0; vint 1 |]] in
  check Alcotest.int "no epoch: nothing flushes" 0 (List.length out1);
  let out2 = run_op op [Item.Eof] in
  check Alcotest.int "eof flushes all" 2 (List.length (tuples out2))

let test_agg_flush_item () =
  let agg = Rts.Aggregate.make (agg_config ()) in
  let op = Rts.Aggregate.op agg in
  ignore (run_op op [Item.Tuple [| vint 5; vint 0; vint 1 |]]);
  let out = run_op op [Item.Flush] in
  check Alcotest.int "user flush empties groups" 1 (List.length (tuples out))

let test_agg_pred_filters () =
  let cfg = { (agg_config ()) with Rts.Aggregate.pred = Some (fun t -> Value.compare t.(2) (vint 50) > 0) } in
  let agg = Rts.Aggregate.make cfg in
  let op = Rts.Aggregate.op agg in
  let rows = [[| vint 1; vint 0; vint 10 |]; [| vint 2; vint 0; vint 90 |]] in
  let out = run_op op (List.map (fun r -> Item.Tuple r) rows @ [Item.Eof]) in
  match tuples out with
  | [t] -> (
      match t.(2) with
      | Value.Int c -> check Alcotest.int "only passing tuple counted" 1 c
      | _ -> Alcotest.fail "bad shape")
  | _ -> Alcotest.fail "expected one group"

(* --------------------- LFTA/HFTA two-level equivalence ------------------ *)

let two_level_equivalence =
  qtest ~count:60 "LFTA+HFTA split aggregation = single level"
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, bits) ->
      let rows = mk_rows seed 400 in
      let items = List.map (fun r -> Item.Tuple r) rows @ [Item.Eof] in
      let keys =
        [|
          (fun (t : Value.t array) ->
            match t.(0) with Value.Int ts -> vint (ts / 10) | _ -> raise Value.No_value);
          (fun (t : Value.t array) -> t.(1));
        |]
      in
      let arg = Some (fun (t : Value.t array) -> t.(2)) in
      let aggs =
        [|
          { Agg_fn.kind = Agg_fn.Count; arg = None };
          { Agg_fn.kind = Agg_fn.Sum; arg };
          { Agg_fn.kind = Agg_fn.Min; arg };
          { Agg_fn.kind = Agg_fn.Max; arg };
        |]
      in
      let single =
        Rts.Aggregate.make
          {
            Rts.Aggregate.pred = None;
            keys;
            epoch_key = Some 0;
            direction = Order_prop.Asc;
            band = 0.0;
            aggs;
            assemble = Array.copy;
            having = None;
            epoch_out = Some 0;
            punct_in = None;
          }
      in
      let single_out = tuples (run_op (Rts.Aggregate.op single) items) in
      (* two level: a small direct-mapped LFTA emits partials; the HFTA
         recombines them (count -> sum of counts, etc.) *)
      let lfta =
        Rts.Lfta_aggregate.make
          {
            Rts.Lfta_aggregate.table_bits = bits;
            pred = None;
            keys;
            epoch_key = Some 0;
            direction = Order_prop.Asc;
            band = 0.0;
            aggs;
            assemble = Array.copy;
            punct_in = None;
            epoch_out = None;
          }
      in
      let partials = run_op (Rts.Lfta_aggregate.op lfta) items in
      let super =
        Rts.Aggregate.make
          {
            Rts.Aggregate.pred = None;
            keys = [| (fun t -> t.(0)); (fun t -> t.(1)) |];
            epoch_key = Some 0;
            direction = Order_prop.Asc;
            band = 0.0;
            aggs =
              [|
                { Agg_fn.kind = Agg_fn.Sum; arg = Some (fun t -> t.(2)) };
                { Agg_fn.kind = Agg_fn.Sum; arg = Some (fun t -> t.(3)) };
                { Agg_fn.kind = Agg_fn.Min; arg = Some (fun t -> t.(4)) };
                { Agg_fn.kind = Agg_fn.Max; arg = Some (fun t -> t.(5)) };
              |];
            assemble = Array.copy;
            having = None;
            epoch_out = Some 0;
            punct_in = None;
          }
      in
      let split_out = tuples (run_op (Rts.Aggregate.op super) partials) in
      let to_set rows = List.sort compare (List.map Array.to_list rows) in
      to_set single_out = to_set split_out)

let test_lfta_eviction_counting () =
  (* table of 1 slot: every key change evicts *)
  let lfta =
    Rts.Lfta_aggregate.make
      {
        Rts.Lfta_aggregate.table_bits = 0;
        pred = None;
        keys = [| (fun t -> t.(0)) |];
        epoch_key = None;
        direction = Order_prop.Asc;
        band = 0.0;
        aggs = [| { Agg_fn.kind = Agg_fn.Count; arg = None } |];
        assemble = Array.copy;
        punct_in = None;
        epoch_out = None;
      }
  in
  let op = Rts.Lfta_aggregate.op lfta in
  let items = [Item.Tuple [| vint 1 |]; Item.Tuple [| vint 2 |]; Item.Tuple [| vint 1 |]; Item.Eof] in
  let out = run_op op items in
  check Alcotest.int "evictions" 2 (Rts.Lfta_aggregate.evictions lfta);
  check Alcotest.int "three partials out" 3 (List.length (tuples out))

(* An epoch advance flushes the table and then announces the new epoch,
   shifted back by the input's band: a banded input may still deliver
   tuples that far behind, so the bound must not close their epochs. *)
let test_lfta_epoch_bound () =
  let lfta ~direction ~band =
    Rts.Lfta_aggregate.make
      {
        Rts.Lfta_aggregate.table_bits = 4;
        pred = None;
        keys = [| (fun t -> t.(0)) |];
        epoch_key = Some 0;
        direction;
        band;
        aggs = [| { Agg_fn.kind = Agg_fn.Count; arg = None } |];
        assemble = Array.copy;
        punct_in = None;
        epoch_out = Some 0;
      }
  in
  let show items =
    List.map
      (function
        | Item.Tuple t -> "row " ^ Value.to_string t.(0)
        | Item.Punct [ (0, v) ] -> "bound " ^ Value.to_string v
        | _ -> "other")
      items
  in
  let feed epochs = List.map (fun e -> Item.Tuple [| vint e |]) epochs in
  let asc band = show (run_op (Rts.Lfta_aggregate.op (lfta ~direction:Order_prop.Asc ~band)) (feed [ 0; 0; 1; 1; 5 ])) in
  check
    Alcotest.(list string)
    "no band: the bound is the new epoch"
    [ "row 0"; "bound 1"; "row 1"; "bound 5" ]
    (asc 0.0);
  check
    Alcotest.(list string)
    "band 2: the bound lags the epoch by 2"
    [ "row 0"; "bound -1"; "row 1"; "bound 3" ]
    (asc 2.0);
  check
    Alcotest.(list string)
    "fractional band floors"
    [ "row 0"; "bound -1"; "row 1"; "bound 3" ]
    (asc 1.5);
  let desc = lfta ~direction:Order_prop.Desc ~band:2.0 in
  check
    Alcotest.(list string)
    "descending: the bound leads by the band"
    [ "row 9"; "bound 10" ]
    (show (run_op (Rts.Lfta_aggregate.op desc) (feed [ 9; 8 ])));
  check Alcotest.int "the first epoch announces nothing" 0
    (List.length
       (List.filter
          (function Item.Punct _ -> true | _ -> false)
          (run_op (Rts.Lfta_aggregate.op (lfta ~direction:Order_prop.Asc ~band:0.0)) (feed [ 3; 3 ]))))

(* ----------------------- LFTA table: flat columns ----------------------- *)

(* Count and sum of t.(1), grouped by the given keys (default: t.(0)). *)
let lfta_count_sum ?(bits = 0) ?(keys = [| (fun (t : Value.t array) -> t.(0)) |]) () =
  Rts.Lfta_aggregate.make
    {
      Rts.Lfta_aggregate.table_bits = bits;
      pred = None;
      keys;
      epoch_key = None;
      direction = Order_prop.Asc;
      band = 0.0;
      aggs =
        [|
          { Agg_fn.kind = Agg_fn.Count; arg = None };
          { Agg_fn.kind = Agg_fn.Sum; arg = Some (fun t -> t.(1)) };
        |];
      assemble = Array.copy;
      punct_in = None;
      epoch_out = None;
    }

let check_rows msg expected items =
  check Alcotest.(list string) msg expected (List.map show_row (tuples items))

let test_lfta_int_ip_distinct () =
  (* one slot, so every tuple meets the previous group's key *)
  let lfta = lfta_count_sum () in
  let rows = [ [| vint 5; vint 1 |]; [| Value.Ip 5; vint 1 |]; [| vint 5; vint 1 |] ] in
  let out = run_op (Rts.Lfta_aggregate.op lfta) (List.map (fun r -> Item.Tuple r) rows @ [ Item.Eof ]) in
  check_rows "Int 5 and Ip 5 are two groups"
    [ "int:5,int:1,int:1"; "ip:0.0.0.5,int:1,int:1"; "int:5,int:1,int:1" ]
    out;
  check Alcotest.int "each key change evicts" 2 (Rts.Lfta_aggregate.evictions lfta)

(* The table the flat columns replaced: one boxed key array per slot,
   matched with [Value.equal_array]. Same slot index, same flush order. *)
let reference_lfta ~bits rows =
  let slots = Array.make (1 lsl bits) None in
  let out = ref [] in
  let emit (key, accs) = out := Array.append key (Array.map Agg_fn.final accs) :: !out in
  List.iter
    (fun (row : Value.t array) ->
      let key = [| row.(0); row.(2) |] in
      let idx = Value.hash_array key land ((1 lsl bits) - 1) in
      let accs =
        match slots.(idx) with
        | Some (k, accs) when Value.equal_array k key -> accs
        | prev ->
            Option.iter emit prev;
            let accs = [| Agg_fn.init Agg_fn.Count; Agg_fn.init Agg_fn.Sum |] in
            slots.(idx) <- Some (key, accs);
            accs
      in
      Agg_fn.step accs.(0) Value.Null;
      Agg_fn.step accs.(1) row.(1))
    rows;
  Array.iter (Option.iter emit) slots;
  List.rev_map show_row !out

let lfta_groups_as_value_equal =
  let key_pool =
    [|
      Value.Null; vint 0; vint 1; vint 5; Value.Ip 5; Value.Float 1.0; Value.Float 5.0;
      Value.Float 0.0; Value.Float (-0.0); Value.Float Float.nan; Value.Str "a"; Value.Str "b";
      Value.Bool true;
    |]
  in
  let arg_pool = [| Value.Null; vint 3; vint (-4); Value.Float 0.5 |] in
  let gen =
    QCheck.Gen.(
      pair (int_range 0 3)
        (list_size (int_range 0 60)
           (triple (oneofa key_pool) (oneofa arg_pool) (oneofa [| vint 7; Value.Null; Value.Str "a" |]))))
  in
  qtest ~count:300 "keys group as Value.equal does"
    (QCheck.make
       ~print:(fun (bits, rows) ->
         Printf.sprintf "bits %d: %s" bits
           (String.concat " " (List.map (fun (a, b, c) -> show_row [| a; b; c |]) rows)))
       gen)
    (fun (bits, rows) ->
      let rows = List.map (fun (k, arg, k2) -> [| k; arg; k2 |]) rows in
      let lfta = lfta_count_sum ~bits ~keys:[| (fun t -> t.(0)); (fun t -> t.(2)) |] () in
      let got =
        List.map show_row
          (tuples
             (run_op (Rts.Lfta_aggregate.op lfta)
                (List.map (fun r -> Item.Tuple r) rows @ [ Item.Eof ])))
      in
      got = reference_lfta ~bits rows)

let test_lfta_reused_slot_starts_from_zero () =
  let lfta = lfta_count_sum () in
  let op = Rts.Lfta_aggregate.op lfta in
  let row k arg = Item.Tuple [| vint k; arg |] in
  (* 1 evicts nothing; 2 evicts 1; Flush empties the slot; 2 reuses it
     after the flush; 3 evicts 2 *)
  let out =
    run_op op
      [
        row 1 (vint 5); row 1 (vint 7); row 2 Value.Null; Item.Flush; row 2 Value.Null;
        row 2 (vint 3); row 3 Value.Null; Item.Eof;
      ]
  in
  check_rows "accumulators restart in a reused slot"
    [ "int:1,int:2,int:12"; "int:2,int:1,null:null"; "int:2,int:2,int:3"; "int:3,int:1,null:null" ]
    out

let test_lfta_columns_allocated_lazily () =
  let lfta = lfta_count_sum ~bits:16 ~keys:[| (fun t -> t.(0)); (fun t -> t.(1)) |] () in
  let words () = Obj.reachable_words (Obj.repr lfta) in
  check Alcotest.bool "no column before the first tuple" true (words () < 4096);
  ignore (run_op (Rts.Lfta_aggregate.op lfta) [ Item.Tuple [| vint 1; vint 2 |] ]);
  check Alcotest.bool "columns at the first tuple" true (words () > 2 lsl 16)

let test_lfta_keyless_flushes () =
  let lfta = lfta_count_sum ~bits:4 ~keys:[||] () in
  let op = Rts.Lfta_aggregate.op lfta in
  let out = run_op op [ Item.Tuple [| vint 0; vint 2 |]; Item.Tuple [| vint 0; vint 3 |]; Item.Flush ] in
  check_rows "flush emits the single group" [ "int:2,int:5" ] out;
  check Alcotest.bool "flush forwarded" true (List.rev out |> List.hd = Item.Flush);
  let out = run_op op [ Item.Tuple [| vint 0; Value.Null |]; Item.Eof ] in
  check_rows "eof emits the regrown group" [ "int:1,null:null" ] out;
  check Alcotest.bool "eof forwarded" true (List.rev out |> List.hd = Item.Eof);
  check Alcotest.int "no evictions" 0 (Rts.Lfta_aggregate.evictions lfta);
  check Alcotest.int "two partials" 2 (Rts.Lfta_aggregate.emitted lfta)

(* ------------------------------- Merge --------------------------------- *)

let merge_outputs_ordered =
  qtest ~count:100 "merge output respects the ordered attribute" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let mk () =
        let ts = ref 0 in
        List.init (10 + Prng.int rng 30) (fun _ ->
            ts := !ts + Prng.int rng 5;
            [| vint !ts |])
      in
      let s0 = mk () and s1 = mk () in
      let merge =
        Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Order_prop.Asc }
      in
      let op = Rts.Merge_op.op merge in
      let out = ref [] in
      let emit i = out := i :: !out in
      let q0 = ref s0 and q1 = ref s1 in
      let deliver input row = feed op ~input (Item.Tuple row) ~emit in
      let rec go () =
        match (!q0, !q1) with
        | [], [] -> ()
        | x :: rest, _ when !q1 = [] || Prng.bool rng ->
            q0 := rest;
            deliver 0 x;
            go ()
        | _, y :: rest ->
            q1 := rest;
            deliver 1 y;
            go ()
        | x :: rest, [] ->
            q0 := rest;
            deliver 0 x;
            go ()
      in
      go ();
      feed op ~input:0 Item.Eof ~emit;
      feed op ~input:1 Item.Eof ~emit;
      let ts_list =
        List.filter_map
          (function
            | Item.Tuple t -> ( match t.(0) with Value.Int v -> Some v | _ -> None)
            | _ -> None)
          (List.rev !out)
      in
      ts_list = List.sort compare ts_list
      && List.length ts_list = List.length s0 + List.length s1)

let test_merge_blocked_input_reported () =
  let merge = Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Order_prop.Asc } in
  let op = Rts.Merge_op.op merge in
  let emit _ = () in
  feed op ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
  check Alcotest.(option int) "blocked on silent input 1" (Some 1)
    (op.Rts.Operator.blocked_input ());
  (* a punctuation unblocks without a tuple *)
  feed op ~input:1 (Item.Punct [(0, vint 10)]) ~emit;
  check Alcotest.(option int) "punct unblocked" None (op.Rts.Operator.blocked_input ())

let test_merge_punct_advances () =
  let merge = Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Order_prop.Asc } in
  let op = Rts.Merge_op.op merge in
  let out = ref [] in
  let emit i = out := i :: !out in
  feed op ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
  check Alcotest.int "held back" 0 (List.length !out);
  feed op ~input:1 (Item.Punct [(0, vint 7)]) ~emit;
  check Alcotest.bool "tuple released by punct" true
    (List.exists (function Item.Tuple [| Value.Int 5 |] -> true | _ -> false) !out)

let test_merge_eof_drains () =
  let merge = Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Order_prop.Asc } in
  let op = Rts.Merge_op.op merge in
  let out = ref [] in
  let emit i = out := i :: !out in
  feed op ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
  feed op ~input:1 Item.Eof ~emit;
  feed op ~input:0 Item.Eof ~emit;
  check Alcotest.bool "drained and eof" true
    (match List.rev !out with [Item.Tuple _; Item.Eof] -> true | _ -> false)

(* A Gap sealing a batch must leave after that batch's tuples, as it does
   when the same items arrive one per batch. [gap_sealed_runs] feeds
   [rows] on input 0 both ways, after [prelude], and returns the two
   outputs: (one batch sealed by Gap 3, one item per batch). *)
let gap_sealed_runs make ~prelude rows =
  let run deliver =
    let op = make () in
    let out = ref [] in
    let emit i = out := i :: !out in
    List.iter (fun (input, item) -> feed op ~input item ~emit) prelude;
    deliver op ~emit;
    List.rev !out
  in
  let batched =
    run (fun op ~emit ->
        Rts.Node.feed op ~input:0 (Rts.Batch.make (Array.of_list rows) (Some (Item.Gap 3))) ~emit)
  in
  let singles =
    run (fun op ~emit ->
        List.iter (fun row -> feed op ~input:0 (Item.Tuple row) ~emit) rows;
        feed op ~input:0 (Item.Gap 3) ~emit)
  in
  (batched, singles)

let test_merge_gap_after_batch_tuples () =
  let make () =
    Rts.Merge_op.op
      (Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Order_prop.Asc })
  in
  let batched, singles =
    gap_sealed_runs make ~prelude:[ (1, Item.Eof) ] [ [| vint 1 |]; [| vint 2 |] ]
  in
  check Alcotest.bool "tuple 1; tuple 2; gap 3" true
    (batched = [ Item.Tuple [| vint 1 |]; Item.Tuple [| vint 2 |]; Item.Gap 3 ]);
  check Alcotest.bool "same as one item per batch" true (batched = singles)

(* -------------------------------- Join ---------------------------------- *)

let join_matches_nested_loop =
  qtest ~count:100 "windowed join = nested loop within window" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let mk n =
        let ts = ref 0 in
        List.init n (fun i ->
            ts := !ts + Prng.int rng 4;
            [| vint !ts; vint i |])
      in
      let left = mk (10 + Prng.int rng 20) and right = mk (10 + Prng.int rng 20) in
      let lo = -2.0 and hi = 2.0 in
      let join =
        Rts.Join_op.make
          {
            Rts.Join_op.output_mode = Rts.Join_op.Banded_output;
            left_idx = 0;
            right_idx = 0;
            lo;
            hi;
            pred = (fun _ _ -> true);
            assemble = (fun l r -> Some [| l.(0); l.(1); r.(0); r.(1) |]);
            left_out = Some 0;
            right_out = Some 2;
          }
      in
      let op = Rts.Join_op.op join in
      let out = ref [] in
      let emit i = out := i :: !out in
      (* interleave by timestamp, as an ordered network would deliver *)
      let tagged =
        List.map (fun r -> (0, r)) left @ List.map (fun r -> (1, r)) right
        |> List.stable_sort (fun (_, a) (_, b) -> Value.compare a.(0) b.(0))
      in
      List.iter (fun (input, row) -> feed op ~input (Item.Tuple row) ~emit) tagged;
      feed op ~input:0 Item.Eof ~emit;
      feed op ~input:1 Item.Eof ~emit;
      let got =
        List.filter_map (function Item.Tuple t -> Some (Array.to_list t) | _ -> None) !out
        |> List.sort compare
      in
      let expected =
        List.concat_map
          (fun l ->
            List.filter_map
              (fun r ->
                match (l.(0), r.(0)) with
                | Value.Int lt, Value.Int rt
                  when float_of_int (lt - rt) >= lo && float_of_int (lt - rt) <= hi ->
                    Some [l.(0); l.(1); r.(0); r.(1)]
                | _ -> None)
              right)
          left
        |> List.sort compare
      in
      got = expected)

let test_join_output_modes () =
  (* the Section 2.1 algorithm choice: banded output can run backwards
     within the window; ordered output may not, and buffers more *)
  let mk mode =
    Rts.Join_op.make
      {
        Rts.Join_op.output_mode = mode;
        left_idx = 0;
        right_idx = 0;
        lo = -2.0;
        hi = 2.0;
        pred = (fun _ _ -> true);
        assemble = (fun l r -> Some [| l.(0); r.(0) |]);
        left_out = Some 0;
        right_out = Some 1;
      }
  in
  (* deliver rights first so banded probing emits left ts out of order:
     left 5 arrives and matches rights 4,5,6 immediately; left 4 arrives
     later and matches 3..6 — its outputs (ts 4) follow left 5's. *)
  let feed join =
    let op = Rts.Join_op.op join in
    let out = ref [] in
    let emit i = out := i :: !out in
    List.iter
      (fun rt -> feed op ~input:1 (Item.Tuple [| vint rt |]) ~emit)
      [3; 4; 5; 6];
    (* left side arrives late and slightly jumbled within its band *)
    feed op ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
    feed op ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
    (* a punctuation instead of the straggler: bound jumps forward *)
    feed op ~input:0 (Item.Punct [(0, vint 9)]) ~emit;
    feed op ~input:1 (Item.Punct [(0, vint 9)]) ~emit;
    feed op ~input:0 Item.Eof ~emit;
    feed op ~input:1 Item.Eof ~emit;
    List.filter_map
      (function
        | Item.Tuple t -> ( match t.(0) with Value.Int v -> Some v | _ -> None)
        | _ -> None)
      (List.rev !out)
  in
  let banded_join = mk Rts.Join_op.Banded_output in
  let banded = feed banded_join in
  let ordered_join = mk Rts.Join_op.Ordered_output in
  let ordered = feed ordered_join in
  check Alcotest.(list int) "same matches either way" (List.sort compare banded)
    (List.sort compare ordered);
  check Alcotest.(list int) "ordered mode sorted on the left attribute"
    (List.sort compare ordered) ordered

let join_ordered_mode_sorted =
  qtest ~count:60 "ordered join output is always sorted" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let mk n =
        let ts = ref 0 in
        List.init n (fun i ->
            ts := !ts + Prng.int rng 4;
            [| vint !ts; vint i |])
      in
      let left = mk (5 + Prng.int rng 20) and right = mk (5 + Prng.int rng 20) in
      let join =
        Rts.Join_op.make
          {
            Rts.Join_op.output_mode = Rts.Join_op.Ordered_output;
            left_idx = 0;
            right_idx = 0;
            lo = -3.0;
            hi = 3.0;
            pred = (fun _ _ -> true);
            assemble = (fun l r -> Some [| l.(0); l.(1); r.(0); r.(1) |]);
            left_out = Some 0;
            right_out = Some 2;
          }
      in
      let op = Rts.Join_op.op join in
      let out = ref [] in
      let emit i = out := i :: !out in
      let tagged =
        List.map (fun r -> (0, r)) left @ List.map (fun r -> (1, r)) right
        |> List.stable_sort (fun (_, a) (_, b) -> Value.compare a.(0) b.(0))
      in
      List.iter (fun (input, row) -> feed op ~input (Item.Tuple row) ~emit) tagged;
      feed op ~input:0 Item.Eof ~emit;
      feed op ~input:1 Item.Eof ~emit;
      let left_ts =
        List.filter_map
          (function
            | Item.Tuple t -> ( match t.(0) with Value.Int v -> Some v | _ -> None)
            | _ -> None)
          (List.rev !out)
      in
      left_ts = List.sort compare left_ts)

let test_join_purges_state () =
  let join =
    Rts.Join_op.make
      {
        Rts.Join_op.output_mode = Rts.Join_op.Banded_output;
        left_idx = 0;
        right_idx = 0;
        lo = 0.0;
        hi = 0.0;
        pred = (fun _ _ -> true);
        assemble = (fun l r -> Some (Array.append l r));
        left_out = Some 0;
        right_out = None;
      }
  in
  let op = Rts.Join_op.op join in
  let emit _ = () in
  for i = 1 to 100 do
    feed op ~input:0 (Item.Tuple [| vint i |]) ~emit;
    feed op ~input:1 (Item.Tuple [| vint i |]) ~emit
  done;
  check Alcotest.bool "window bounds buffered state" true (Rts.Join_op.buffered join <= 4)

let test_join_gap_after_batch_tuples () =
  (* right holds 1 and 2 and is at Eof; left 1 then 2 pairs with both,
     and left 2 releases left 1's pairs *)
  let make () =
    Rts.Join_op.op
      (Rts.Join_op.make
         {
           Rts.Join_op.output_mode = Rts.Join_op.Ordered_output;
           left_idx = 0;
           right_idx = 0;
           lo = -4.0;
           hi = 4.0;
           pred = (fun _ _ -> true);
           assemble = (fun l r -> Some [| l.(0); r.(0) |]);
           left_out = Some 0;
           right_out = Some 1;
         })
  in
  let prelude = [ (1, Item.Tuple [| vint 1 |]); (1, Item.Tuple [| vint 2 |]); (1, Item.Eof) ] in
  let batched, singles = gap_sealed_runs make ~prelude [ [| vint 1 |]; [| vint 2 |] ] in
  check Alcotest.bool "pair (1,1); pair (1,2); gap 3" true
    (batched = [ Item.Tuple [| vint 1; vint 1 |]; Item.Tuple [| vint 1; vint 2 |]; Item.Gap 3 ]);
  check Alcotest.bool "same as one item per batch" true (batched = singles)

let test_join_bad_window () =
  Alcotest.check_raises "lo > hi rejected" (Invalid_argument "Join_op.make: empty window (lo > hi)")
    (fun () ->
      ignore
        (Rts.Join_op.make
           {
             Rts.Join_op.output_mode = Rts.Join_op.Banded_output;
             left_idx = 0;
             right_idx = 0;
             lo = 1.0;
             hi = -1.0;
             pred = (fun _ _ -> true);
             assemble = (fun _ _ -> None);
             left_out = None;
             right_out = None;
           }))

let test_agg_descending_stream () =
  (* a countdown stream (Desc direction): epochs close as values fall *)
  let cfg =
    {
      (agg_config ()) with
      Rts.Aggregate.direction = Order_prop.Desc;
      keys =
        [|
          (fun t -> match t.(0) with Value.Int ts -> vint (ts / 10) | _ -> raise Value.No_value);
          (fun t -> t.(1));
        |];
      punct_in = None;
    }
  in
  let agg = Rts.Aggregate.make cfg in
  let op = Rts.Aggregate.op agg in
  let out1 = run_op op [Item.Tuple [| vint 35; vint 0; vint 1 |]] in
  check Alcotest.int "no flush on first" 0 (List.length out1);
  let out2 = run_op op [Item.Tuple [| vint 25; vint 0; vint 1 |]] in
  check Alcotest.int "falling epoch closes group" 1 (List.length (tuples out2));
  let out3 = run_op op [Item.Eof] in
  check Alcotest.int "eof flushes the rest" 1 (List.length (tuples out3))

let test_merge_descending () =
  let merge =
    Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Order_prop.Desc }
  in
  let op = Rts.Merge_op.op merge in
  let out = ref [] in
  let emit i = out := i :: !out in
  feed op ~input:0 (Item.Tuple [| vint 9 |]) ~emit;
  feed op ~input:1 (Item.Tuple [| vint 8 |]) ~emit;
  feed op ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
  feed op ~input:1 (Item.Tuple [| vint 3 |]) ~emit;
  feed op ~input:0 Item.Eof ~emit;
  feed op ~input:1 Item.Eof ~emit;
  let ts =
    List.filter_map
      (function Item.Tuple t -> (match t.(0) with Value.Int v -> Some v | _ -> None) | _ -> None)
      (List.rev !out)
  in
  check Alcotest.(list int) "descending merge order" [9; 8; 5; 3] ts

(* ------------------------------ MD-join --------------------------------- *)

(* base rows: (label_id, lo_port, hi_port); overlapping on purpose *)
let md_base =
  [|
    [| vint 0; vint 0; vint 1023 |];     (* well-known *)
    [| vint 1; vint 1024; vint 65535 |]; (* ephemeral *)
    [| vint 2; vint 80; vint 80 |];      (* web: overlaps well-known *)
  |]

let md_config ?(epoch_field = 0) () =
  {
    Rts.Md_join_op.base = md_base;
    theta =
      (fun b s ->
        match (b.(1), b.(2), s.(1)) with
        | Value.Int lo, Value.Int hi, Value.Int port -> port >= lo && port <= hi
        | _ -> false);
    aggs =
      [|
        { Agg_fn.kind = Agg_fn.Count; arg = None };
        { Agg_fn.kind = Agg_fn.Sum; arg = Some (fun s -> s.(2)) };
      |];
    epoch_field;
    direction = Order_prop.Asc;
    band = 0.0;
    assemble = (fun ~base ~epoch ~aggs -> [| epoch; base.(0); aggs.(0); aggs.(1) |]);
  }

let test_md_join_overlapping_groups () =
  (* tuples: (epoch, port, len) *)
  let md = Rts.Md_join_op.make (md_config ()) in
  let rows =
    [
      [| vint 1; vint 80; vint 10 |];
      [| vint 1; vint 22; vint 20 |];
      [| vint 1; vint 5000; vint 30 |];
      [| vint 2; vint 80; vint 40 |];
    ]
  in
  let out = run_op (Rts.Md_join_op.op md) (List.map (fun r -> Item.Tuple r) rows @ [Item.Eof]) in
  let strings =
    List.map
      (fun t -> String.concat "," (List.map Value.to_string (Array.to_list t)))
      (tuples out)
  in
  (* epoch 1: the port-80 packet counts in BOTH well-known and web; the
     quiet group still reports; epoch 2 flushed at EOF *)
  check Alcotest.(list string) "overlapping + empty groups"
    [
      "1,0,2,30"  (* well-known: 80 + 22 *);
      "1,1,1,30"  (* ephemeral: 5000 *);
      "1,2,1,10"  (* web: just the port-80 one *);
      "2,0,1,40";
      "2,1,0,null";
      "2,2,1,40";
    ]
    strings

let test_md_join_empty_base_rejected () =
  Alcotest.check_raises "empty base" (Invalid_argument "Md_join_op.make: empty base relation")
    (fun () -> ignore (Rts.Md_join_op.make { (md_config ()) with Rts.Md_join_op.base = [||] }))

let test_md_join_flush_and_punct () =
  let md = Rts.Md_join_op.make (md_config ()) in
  let op = Rts.Md_join_op.op md in
  ignore (run_op op [Item.Tuple [| vint 5; vint 80; vint 1 |]]);
  (* a punctuation past the open epoch closes it *)
  let out = run_op op [Item.Punct [(0, vint 9)]] in
  check Alcotest.int "punct closes the epoch (3 base rows)" 3 (List.length (tuples out));
  check Alcotest.int "one epoch emitted" 1 (Rts.Md_join_op.epochs_emitted md)

let test_md_join_in_manager () =
  (* the paper's bypass path: a user-written query node in the network *)
  let mgr = Rts.Manager.create () in
  let schema3 =
    Schema.make
      [
        { Schema.name = "tb"; ty = Ty.Int; order = Order_prop.Monotone Order_prop.Asc };
        { Schema.name = "port"; ty = Ty.Int; order = Order_prop.Unordered };
        { Schema.name = "len"; ty = Ty.Int; order = Order_prop.Unordered };
      ]
  in
  let rows =
    [[| vint 1; vint 80; vint 5 |]; [| vint 1; vint 9000; vint 7 |]; [| vint 2; vint 443; vint 9 |]]
  in
  let remaining = ref rows in
  ignore
    (Result.get_ok
       (Rts.Manager.add_source mgr ~name:"s" ~schema:schema3
          {
            Rts.Node.pull =
              (fun () ->
                match !remaining with
                | [] -> None
                | r :: rest ->
                    remaining := rest;
                    Some (Item.Tuple r));
            clock = (fun () -> []);
          }));
  let md = Rts.Md_join_op.make (md_config ()) in
  let out_schema =
    Schema.make
      [
        { Schema.name = "tb"; ty = Ty.Int; order = Order_prop.Monotone Order_prop.Asc };
        { Schema.name = "bucket"; ty = Ty.Int; order = Order_prop.Unordered };
        { Schema.name = "cnt"; ty = Ty.Int; order = Order_prop.Unordered };
        { Schema.name = "bytes"; ty = Ty.Int; order = Order_prop.Unordered };
      ]
  in
  ignore
    (Result.get_ok
       (Rts.Manager.add_query_node mgr ~name:"port_bands" ~kind:Rts.Node.Hfta
          ~schema:out_schema ~inputs:["s"] ~op:(Rts.Md_join_op.op md)));
  let n = ref 0 in
  Result.get_ok (Rts.Manager.on_item mgr "port_bands" (function Item.Tuple _ -> incr n | _ -> ()));
  (match Rts.Scheduler.run mgr with Ok _ -> () | Error e -> Alcotest.fail e);
  check Alcotest.int "two epochs x three buckets" 6 !n

(* --------------------------- Manager/Scheduler -------------------------- *)

let src_schema = mk_schema ()

let counting_source n =
  let i = ref 0 in
  {
    Rts.Node.pull =
      (fun () ->
        if !i >= n then None
        else begin
          let v = !i in
          incr i;
          Some (Item.Tuple [| vint v; vint (v mod 3) |])
        end);
    clock = (fun () -> [(0, vint !i)]);
  }

let test_manager_registry () =
  let mgr = Rts.Manager.create () in
  (match Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 5) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Rts.Manager.add_source mgr ~name:"S" ~schema:src_schema (counting_source 5) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate name (case-insensitive) accepted");
  check Alcotest.bool "find case-insensitive" true (Rts.Manager.find mgr "S" <> None);
  match Rts.Manager.subscribe mgr "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown stream subscribed"

let passthrough_op () = Rts.Select_op.make ~project:(fun t -> Some t) ~punct_map:[(0, 0)] ()

let test_manager_lfta_batch_restriction () =
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 1)));
  Rts.Manager.start mgr;
  (match
     Rts.Manager.add_query_node mgr ~name:"late_lfta" ~kind:Rts.Node.Lfta ~schema:src_schema
       ~inputs:["s"] ~op:(passthrough_op ())
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "LFTA after start accepted");
  (* HFTAs can be added at any point *)
  (match
     Rts.Manager.add_query_node mgr ~name:"late_hfta" ~kind:Rts.Node.Hfta ~schema:src_schema
       ~inputs:["s"] ~op:(passthrough_op ())
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("HFTA after start rejected: " ^ e));
  (* a restart re-opens the LFTA batch *)
  Rts.Manager.restart mgr;
  match
    Rts.Manager.add_query_node mgr ~name:"relinked" ~kind:Rts.Node.Lfta ~schema:src_schema
      ~inputs:["s"] ~op:(passthrough_op ())
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("LFTA after restart rejected: " ^ e)

let test_manager_lfta_input_restriction () =
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 1)));
  ignore
    (Result.get_ok
       (Rts.Manager.add_query_node mgr ~name:"h" ~kind:Rts.Node.Hfta ~schema:src_schema
          ~inputs:["s"] ~op:(passthrough_op ())));
  match
    Rts.Manager.add_query_node mgr ~name:"bad" ~kind:Rts.Node.Lfta ~schema:src_schema
      ~inputs:["h"] ~op:(passthrough_op ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "LFTA reading a stream accepted"

(* -------------------- channel promotion --------------------------------- *)

(* Promotion switches a local edge into blocking mode in place, the way
   a multi-domain run switches every edge between two domains. *)

let drain_channel chan =
  let rec go acc =
    match Rts.Channel.pop_batch chan with
    | Some batch -> go (List.rev_append (Rts.Batch.to_items batch) acc)
    | None -> List.rev acc
  in
  go []

let promote ?(limit = 64) chan = Rts.Channel.set_blocking chan ~limit ~on_push:ignore

let test_promotion_carries_buffer () =
  (* whatever sits buffered at the switch — tuples, punctuation, Eof —
     must come out of the blocking channel intact and in order *)
  let chan = Rts.Channel.create ~capacity:16 ~name:"edge" () in
  let items =
    [
      Item.Tuple [| vint 0; vint 0 |];
      Item.Tuple [| vint 1; vint 0 |];
      Item.Punct [(0, vint 1)];
      Item.Tuple [| vint 2; vint 0 |];
      Item.Eof;
    ]
  in
  List.iter (fun item -> assert (Rts.Channel.push chan item)) items;
  check Alcotest.bool "first switch reports it" true (promote chan);
  check Alcotest.int "nothing lost in the switch" (List.length items) (Rts.Channel.length chan);
  let got = drain_channel chan in
  check Alcotest.bool "buffered items carry over in order" true (got = items);
  check Alcotest.int "no drops from the switch" 0 (Rts.Channel.drops chan)

let test_promotion_idempotent () =
  (* a second switch mid-stream reports that the channel already blocks
     and disturbs nothing *)
  let chan = Rts.Channel.create ~capacity:16 ~name:"edge" () in
  assert (Rts.Channel.push chan (Item.Tuple [| vint 0; vint 0 |]));
  check Alcotest.bool "first switch" true (promote chan);
  assert (Rts.Channel.push chan (Item.Tuple [| vint 1; vint 0 |]));
  (match Option.map Rts.Batch.to_items (Rts.Channel.pop_batch chan) with
  | Some [ Item.Tuple [| Value.Int 0; _ |] ] -> ()
  | _ -> Alcotest.fail "first tuple expected between promotions");
  check Alcotest.bool "second switch is not a first" false (promote chan);
  let got = drain_channel chan in
  check Alcotest.bool "in-flight item undisturbed" true
    (got = [Item.Tuple [| vint 1; vint 0 |]])

let test_promotion_capacity_clamp () =
  (* the limit is never below what is already buffered: the switch runs
     single-domain, so a push waiting there would never drain. With 5
     buffered, a limit of 2 and one item popped, a push must still get
     in at once. *)
  let chan = Rts.Channel.create ~capacity:8 ~name:"edge" () in
  for i = 0 to 4 do
    assert (Rts.Channel.push chan (Item.Tuple [| vint i; vint 0 |]))
  done;
  ignore (promote ~limit:2 chan);
  check Alcotest.int "every buffered item kept" 5 (Rts.Channel.length chan);
  ignore (Rts.Channel.pop_batch chan);
  let pushed = Atomic.make false in
  let producer =
    Thread.create
      (fun () ->
        ignore (Rts.Channel.push chan (Item.Tuple [| vint 5; vint 0 |]));
        Atomic.set pushed true)
      ()
  in
  let rec await n = Atomic.get pushed || (n > 0 && (Thread.delay 0.01; await (n - 1))) in
  let ok = await 200 in
  (* release a producer stuck on a limit below the buffer *)
  Rts.Channel.close chan;
  Thread.join producer;
  check Alcotest.bool "limit clamped to the buffer" true ok

let test_channel_depth_in_items () =
  (* depth and high-water count items on a local channel too, not ring
     slots: three 4-tuple batches are 12 items *)
  let chan = Rts.Channel.create ~capacity:16 ~name:"edge" () in
  let batch i = Rts.Batch.make (Array.init 4 (fun j -> [| vint ((4 * i) + j); vint 0 |])) None in
  for i = 0 to 2 do
    assert (Rts.Channel.push_batch chan (batch i))
  done;
  check Alcotest.int "depth in items" 12 (Rts.Channel.length chan);
  ignore (Rts.Channel.pop_batch chan);
  check Alcotest.int "a popped batch leaves the depth" 8 (Rts.Channel.length chan);
  assert (Rts.Channel.push_batch chan (batch 3));
  check Alcotest.int "depth after a push" 12 (Rts.Channel.length chan);
  check Alcotest.int "high_water in items" 12 (Rts.Channel.high_water chan);
  let reg = Gigascope_obs.Metrics.create () in
  Rts.Channel.register_metrics chan reg ~prefix:"c";
  match Gigascope_obs.Metrics.find (Gigascope_obs.Metrics.snapshot reg) "c.high_water" with
  | Some (Gigascope_obs.Metrics.Gauge v) -> check (Alcotest.float 0.0) "gauge in items" 12.0 v
  | _ -> Alcotest.fail "missing high_water gauge"

let test_forced_eof_counts_eviction () =
  (* three two-tuple batches into two slots, then an Eof: the third batch
     is refused, and the Eof evicts the first to get in. Both losses are
     drops, so delivered + drops = pushed. *)
  let chan = Rts.Channel.create ~capacity:2 ~name:"edge" () in
  let batch i = Rts.Batch.make (Array.init 2 (fun j -> [| vint ((2 * i) + j); vint 0 |])) None in
  let accepted = List.map (fun i -> Rts.Channel.push_batch chan (batch i)) [ 0; 1; 2 ] in
  check Alcotest.(list bool) "the third batch is refused" [ true; true; false ] accepted;
  check Alcotest.bool "Eof always gets in" true (Rts.Channel.push chan Item.Eof);
  let got = drain_channel chan in
  check Alcotest.bool "Eof delivered last" true (List.rev got |> List.hd = Item.Eof);
  let delivered = List.length (List.filter Item.is_tuple got) in
  check Alcotest.int "delivered + drops = pushed" 6 (delivered + Rts.Channel.drops chan)

let test_scheduler_end_to_end () =
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 100)));
  ignore
    (Result.get_ok
       (Rts.Manager.add_query_node mgr ~name:"q" ~kind:Rts.Node.Lfta ~schema:src_schema
          ~inputs:["s"] ~op:(passthrough_op ())));
  let chan = Result.get_ok (Rts.Manager.subscribe mgr "q") in
  (match Rts.Scheduler.run mgr with Ok _ -> () | Error e -> Alcotest.fail e);
  let rec drain acc =
    match Rts.Channel.pop_batch chan with
    | Some batch -> drain (acc + Rts.Batch.n_tuples batch)
    | None -> acc
  in
  check Alcotest.int "all tuples arrive at subscriber" 100 (drain 0)

let test_scheduler_max_rounds_guard () =
  (* a source that never ends must hit the round guard with a clean error *)
  let mgr = Rts.Manager.create () in
  ignore
    (Result.get_ok
       (Rts.Manager.add_source mgr ~name:"forever" ~schema:src_schema
          {
            Rts.Node.pull = (fun () -> Some (Item.Tuple [| vint 0; vint 0 |]));
            clock = (fun () -> []);
          }));
  match Rts.Scheduler.run ~max_rounds:10 mgr with
  | Error msg -> check Alcotest.bool "round guard fires" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "unbounded source should exhaust max_rounds"

let test_scheduler_rerun_is_noop () =
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 5)));
  ignore (Result.get_ok (Rts.Scheduler.run mgr));
  (* everything exhausted: a second run completes immediately *)
  match Rts.Scheduler.run mgr with
  | Ok stats -> check Alcotest.bool "no extra rounds needed" true (stats.Rts.Scheduler.rounds <= 1)
  | Error e -> Alcotest.fail e

let rounds_metric mgr =
  match
    Gigascope_obs.Metrics.find
      (Gigascope_obs.Metrics.snapshot (Rts.Manager.metrics mgr))
      "rts.scheduler.rounds"
  with
  | Some (Gigascope_obs.Metrics.Counter n) -> n
  | _ -> Alcotest.fail "rts.scheduler.rounds counter missing"

let test_scheduler_rounds_match_progress () =
  (* regression: [rounds] (stat and metric) counts only iterations that
     moved data. An empty source's single Eof-emitting iteration moves
     nothing — it used to be reported as a round *)
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 0)));
  let stats = Result.get_ok (Rts.Scheduler.run ~quantum:1 mgr) in
  check Alcotest.int "empty source: zero rounds" 0 stats.Rts.Scheduler.rounds;
  check Alcotest.int "empty source: metric agrees" 0 (rounds_metric mgr);
  (* N tuples at quantum 1: exactly N productive iterations. The trailing
     iteration that only discovers Eof is not observable progress and must
     not be counted (it used to make this N + 1) *)
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 7)));
  let seen = ref 0 in
  Result.get_ok (Rts.Manager.on_item mgr "s" (function Item.Tuple _ -> incr seen | _ -> ()));
  let stats = Result.get_ok (Rts.Scheduler.run ~quantum:1 mgr) in
  check Alcotest.int "all tuples observed" 7 !seen;
  check Alcotest.int "one round per tuple, Eof round excluded" 7 stats.Rts.Scheduler.rounds;
  check Alcotest.int "metric matches the stat" stats.Rts.Scheduler.rounds (rounds_metric mgr)

let test_scheduler_multiple_subscribers () =
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 10)));
  let a = ref 0 and b = ref 0 in
  Result.get_ok (Rts.Manager.on_item mgr "s" (function Item.Tuple _ -> incr a | _ -> ()));
  Result.get_ok (Rts.Manager.on_item mgr "s" (function Item.Tuple _ -> incr b | _ -> ()));
  ignore (Result.get_ok (Rts.Scheduler.run mgr));
  check Alcotest.int "first subscriber" 10 !a;
  check Alcotest.int "second subscriber" 10 !b

let () =
  Alcotest.run "rts"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          value_equal_hash_consistent;
          Alcotest.test_case "truthy" `Quick test_value_truthy;
          Alcotest.test_case "arrays" `Quick test_value_arrays;
        ] );
      ( "order-prop",
        [
          Alcotest.test_case "weaken" `Quick test_order_weaken;
          Alcotest.test_case "usability" `Quick test_order_usability;
          Alcotest.test_case "arithmetic imputation" `Quick test_order_arithmetic_imputation;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "duplicates" `Quick test_schema_duplicates;
          Alcotest.test_case "concat" `Quick test_schema_concat;
          Alcotest.test_case "ordered fields" `Quick test_schema_ordered_fields;
        ] );
      ( "select",
        [
          Alcotest.test_case "filter + project + punct" `Quick test_select_filter_project;
          Alcotest.test_case "partial projection" `Quick test_select_partial_projection;
        ] );
      ( "aggregate",
        [
          hfta_agg_matches_oracle;
          Alcotest.test_case "epoch flush" `Quick test_agg_epoch_flushes_incrementally;
          Alcotest.test_case "epoch output order" `Quick test_agg_output_epoch_order;
          Alcotest.test_case "punct flush + translate" `Quick test_agg_punct_flush_and_translate;
          Alcotest.test_case "having" `Quick test_agg_having;
          Alcotest.test_case "banded keeps groups open" `Quick test_agg_banded_keeps_groups_open;
          Alcotest.test_case "partial key discards" `Quick test_agg_partial_key_discards;
          Alcotest.test_case "no epoch -> eof only" `Quick test_agg_no_epoch_flushes_at_eof_only;
          Alcotest.test_case "no epoch: key order" `Quick test_agg_no_epoch_key_order;
          group_table_compare_law;
          Alcotest.test_case "flush item" `Quick test_agg_flush_item;
          Alcotest.test_case "predicate filters" `Quick test_agg_pred_filters;
          Alcotest.test_case "descending stream" `Quick test_agg_descending_stream;
        ] );
      ( "lfta-aggregate",
        [
          two_level_equivalence;
          Alcotest.test_case "eviction counting" `Quick test_lfta_eviction_counting;
          Alcotest.test_case "epoch advance emits its bound" `Quick test_lfta_epoch_bound;
          Alcotest.test_case "Int and Ip keys differ" `Quick test_lfta_int_ip_distinct;
          lfta_groups_as_value_equal;
          Alcotest.test_case "reused slot starts from zero" `Quick test_lfta_reused_slot_starts_from_zero;
          Alcotest.test_case "columns allocated lazily" `Quick test_lfta_columns_allocated_lazily;
          Alcotest.test_case "keyless flushes" `Quick test_lfta_keyless_flushes;
        ] );
      ( "merge",
        [
          merge_outputs_ordered;
          Alcotest.test_case "blocked input reported" `Quick test_merge_blocked_input_reported;
          Alcotest.test_case "punct advances" `Quick test_merge_punct_advances;
          Alcotest.test_case "eof drains" `Quick test_merge_eof_drains;
          Alcotest.test_case "gap after the batch's tuples" `Quick
            test_merge_gap_after_batch_tuples;
          Alcotest.test_case "descending merge" `Quick test_merge_descending;
        ] );
      ( "join",
        [
          join_matches_nested_loop;
          Alcotest.test_case "output modes" `Quick test_join_output_modes;
          join_ordered_mode_sorted;
          Alcotest.test_case "purges state" `Quick test_join_purges_state;
          Alcotest.test_case "gap after the batch's tuples" `Quick
            test_join_gap_after_batch_tuples;
          Alcotest.test_case "bad window" `Quick test_join_bad_window;
        ] );
      ( "md-join",
        [
          Alcotest.test_case "overlapping groups" `Quick test_md_join_overlapping_groups;
          Alcotest.test_case "empty base rejected" `Quick test_md_join_empty_base_rejected;
          Alcotest.test_case "flush + punct" `Quick test_md_join_flush_and_punct;
          Alcotest.test_case "as a query node" `Quick test_md_join_in_manager;
        ] );
      ( "channel",
        [
          Alcotest.test_case "promotion carries buffer" `Quick test_promotion_carries_buffer;
          Alcotest.test_case "promotion idempotent" `Quick test_promotion_idempotent;
          Alcotest.test_case "promotion capacity clamp" `Quick test_promotion_capacity_clamp;
          Alcotest.test_case "depth and high water in items" `Quick test_channel_depth_in_items;
          Alcotest.test_case "forced Eof counts what it evicts" `Quick
            test_forced_eof_counts_eviction;
        ] );
      ( "manager-scheduler",
        [
          Alcotest.test_case "registry" `Quick test_manager_registry;
          Alcotest.test_case "LFTA batch restriction" `Quick test_manager_lfta_batch_restriction;
          Alcotest.test_case "LFTA input restriction" `Quick test_manager_lfta_input_restriction;
          Alcotest.test_case "end to end" `Quick test_scheduler_end_to_end;
          Alcotest.test_case "max rounds guard" `Quick test_scheduler_max_rounds_guard;
          Alcotest.test_case "rerun is noop" `Quick test_scheduler_rerun_is_noop;
          Alcotest.test_case "multiple subscribers" `Quick test_scheduler_multiple_subscribers;
          Alcotest.test_case "rounds match progress" `Quick test_scheduler_rounds_match_progress;
        ] );
    ]
