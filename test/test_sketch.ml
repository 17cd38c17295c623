(* Accuracy and algebra laws for lib/sketch.

   The sketches are the payload of the distributed aggregation tree:
   their merge must commute and associate (so any fan-in shape computes
   the same answer), their estimates must honour the advertised error
   bounds (so the root's numbers mean something), and their codec must
   be total (so a truncated or hostile frame is an Error, never an
   exception in the data plane). The split-then-merge differential at
   the bottom mirrors test_shard.ml's merge_partial laws, now for the
   Agg_fn sketch kinds the GSQL aggregates compile to. *)

module Sketch = Gigascope_sketch.Sketch
module Rts = Gigascope_rts
module Value = Rts.Value
module Agg = Rts.Agg_fn

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A deterministic skewed stream: item [i] of a Zipf-ish universe where
   item rank r appears ~ N/(r+1) times. *)
let zipf_stream ~universe ~n seed =
  let st = ref (seed lor 1) in
  let next () =
    (* splitmix-ish step, deterministic across runs *)
    st := (!st * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
    (!st lsr 17) land max_int
  in
  List.init n (fun _ ->
      let r = next () mod universe and bias = next () mod universe in
      (* min of two draws skews mass toward low ranks *)
      Printf.sprintf "item-%d" (min r bias))

let true_counts stream =
  let h = Hashtbl.create 256 in
  List.iter
    (fun item ->
      Hashtbl.replace h item (1 + Option.value (Hashtbl.find_opt h item) ~default:0))
    stream;
  h

(* ------------------------------ accuracy -------------------------------- *)

let test_cm_error_bound () =
  let n = 20_000 and eps = 0.01 and delta = 0.01 in
  let stream = zipf_stream ~universe:2000 ~n 42 in
  let sk = Sketch.cm ~eps ~delta in
  List.iter (Sketch.add sk) stream;
  check Alcotest.int "items_added" n (Sketch.items_added sk);
  check (Alcotest.float 1e-9) "error_bound is eps*N"
    (eps *. float_of_int n)
    (Sketch.error_bound sk);
  let truth = true_counts stream in
  let slack = int_of_float (eps *. float_of_int n) in
  let within = ref 0 and total = ref 0 in
  Hashtbl.iter
    (fun item true_n ->
      let est = Sketch.cm_query sk item in
      (* count-min never under-counts *)
      check Alcotest.bool (item ^ " no undercount") true (est >= true_n);
      incr total;
      if est <= true_n + slack then incr within)
    truth;
  (* the eps*N overcount bound holds per query with probability 1-delta;
     demand it for 99% of the (deterministic) queries *)
  check Alcotest.bool
    (Printf.sprintf "eps*N bound held for %d/%d" !within !total)
    true
    (float_of_int !within >= 0.99 *. float_of_int !total);
  (* an item never added reads as (bounded) noise, not garbage *)
  check Alcotest.bool "absent item bounded" true (Sketch.cm_query sk "never-added" <= slack)

let test_heavy_hitter_recall () =
  let n = 30_000 and k = 50 in
  let stream = zipf_stream ~universe:1000 ~n 7 in
  let sk = Sketch.topk ~k in
  List.iter (Sketch.add sk) stream;
  let truth = true_counts stream in
  let top = Sketch.top sk in
  check Alcotest.bool "at most k counters" true (List.length top <= k);
  (* space-saving guarantee: every item with true count > N/(k+1) is
     tracked; demand recall for everything comfortably above the bound *)
  let bound = float_of_int n /. float_of_int (k + 1) in
  Hashtbl.iter
    (fun item true_n ->
      if float_of_int true_n > 2.0 *. bound then
        check Alcotest.bool (item ^ " recalled") true
          (List.mem_assoc item top))
    truth;
  (* reported counts never under-count the truth for tracked items *)
  List.iter
    (fun (item, cnt) ->
      let true_n = Option.value (Hashtbl.find_opt truth item) ~default:0 in
      check Alcotest.bool (item ^ " no undercount") true (cnt >= true_n))
    top;
  (* the listing is sorted and deterministic *)
  let counts = List.map snd top in
  check Alcotest.bool "sorted descending" true
    (List.for_all2 ( >= ) (List.filteri (fun i _ -> i < List.length counts - 1) counts)
       (List.tl counts))

let test_hll_relative_error () =
  List.iter
    (fun n ->
      let sk = Sketch.hll ~precision:14 in
      for i = 1 to n do
        Sketch.add sk (Printf.sprintf "key-%d" i)
      done;
      let est = Sketch.estimate sk in
      let rel = Float.abs (float_of_int (est - n)) /. float_of_int n in
      (* precision 14 promises ~0.8% relative error; allow 3x *)
      check Alcotest.bool
        (Printf.sprintf "n=%d est=%d rel=%.4f" n est rel)
        true (rel <= 0.025))
    [ 100; 5_000; 100_000 ];
  (* duplicates do not inflate the estimate *)
  let sk = Sketch.hll ~precision:14 in
  for _ = 1 to 50 do
    for i = 1 to 500 do
      Sketch.add sk (Printf.sprintf "dup-%d" i)
    done
  done;
  let est = Sketch.estimate sk in
  check Alcotest.bool
    (Printf.sprintf "dedup est=%d" est)
    true
    (Float.abs (float_of_int (est - 500)) /. 500.0 <= 0.05)

(* ---------------------------- merge algebra ------------------------------ *)

let makers =
  [
    ("cm", fun () -> Sketch.cm ~eps:0.01 ~delta:0.01);
    ("topk", fun () -> Sketch.topk ~k:32);
    ("hll", fun () -> Sketch.hll ~precision:12);
  ]

let filled make items =
  let sk = make () in
  List.iter (Sketch.add sk) items;
  sk

let merged a b =
  match Sketch.merge a b with
  | Ok m -> m
  | Error e -> Alcotest.failf "merge: %s" e

let test_merge_laws () =
  let xs = zipf_stream ~universe:300 ~n:2000 1
  and ys = zipf_stream ~universe:300 ~n:2000 2
  and zs = zipf_stream ~universe:300 ~n:2000 3 in
  (* cm and hll merges are exact everywhere; topk is exact while no
     counter has been evicted, so give it headroom over the 300-item
     universe here (the evicted regime is covered below) *)
  List.iter
    (fun (name, make) ->
      let a () = filled make xs and b () = filled make ys and c () = filled make zs in
      (* commutativity is exact: canonical encodings match byte for byte *)
      check Alcotest.string (name ^ " merge commutes")
        (Sketch.encode (merged (a ()) (b ())))
        (Sketch.encode (merged (b ()) (a ())));
      (* identity: merging in a fresh sketch changes nothing *)
      check Alcotest.string (name ^ " empty is identity")
        (Sketch.encode (a ()))
        (Sketch.encode (merged (a ()) (make ())));
      (* associativity: exact for cm and hll; topk is exact while the
         merged summary has not evicted, which these sizes guarantee *)
      let l = merged (merged (a ()) (b ())) (c ())
      and r = merged (a ()) (merged (b ()) (c ())) in
      check Alcotest.string (name ^ " merge associates") (Sketch.encode l) (Sketch.encode r);
      (* merge_into mutates dst only *)
      let dst = a () and src = b () in
      let src_bytes = Sketch.encode src in
      (match Sketch.merge_into dst src with
      | Ok () -> ()
      | Error e -> Alcotest.failf "merge_into: %s" e);
      check Alcotest.string (name ^ " src untouched") src_bytes (Sketch.encode src);
      check Alcotest.int (name ^ " items_added sums") 4000 (Sketch.items_added dst))
    [
      ("cm", fun () -> Sketch.cm ~eps:0.01 ~delta:0.01);
      ("topk", fun () -> Sketch.topk ~k:512);
      ("hll", fun () -> Sketch.hll ~precision:12);
    ];
  (* evicted regime: byte equality is forfeit (the floor correction is
     order-dependent), but both orders must still agree on what is
     heavy — the space-saving recall guarantee survives the merge *)
  let make () = Sketch.topk ~k:32 in
  let ab = merged (filled make xs) (filled make ys)
  and ba = merged (filled make ys) (filled make xs) in
  let truth = true_counts (xs @ ys) in
  let bound = 2.0 *. (4000.0 /. 33.0) in
  Hashtbl.iter
    (fun item n ->
      if float_of_int n > bound then begin
        check Alcotest.bool (item ^ " heavy in a+b") true (List.mem_assoc item (Sketch.top ab));
        check Alcotest.bool (item ^ " heavy in b+a") true (List.mem_assoc item (Sketch.top ba))
      end)
    truth

let test_merge_split_equals_unsplit () =
  (* the tree's load-bearing law: cut a stream anywhere, sketch the
     pieces on different nodes, merge upward — same answer as one
     sketch over the whole stream *)
  let stream = zipf_stream ~universe:400 ~n:3000 9 in
  List.iter
    (fun (name, make) ->
      let whole = filled make stream in
      List.iter
        (fun pieces ->
          let parts =
            List.map (filled make)
              (List.map
                 (fun p ->
                   List.filteri (fun i _ -> i * pieces / List.length stream = p) stream)
                 (List.init pieces (fun p -> p)))
          in
          let tree =
            match parts with
            | [] -> assert false
            | first :: rest -> List.fold_left (fun acc p -> merged acc p) first rest
          in
          check Alcotest.string
            (Printf.sprintf "%s %d-way split = unsplit" name pieces)
            (Sketch.encode whole) (Sketch.encode tree))
        [ 2; 3; 8 ])
    [ ("cm", fun () -> Sketch.cm ~eps:0.01 ~delta:0.01); ("hll", fun () -> Sketch.hll ~precision:12) ];
  (* topk is exact (hence split-invariant) below k distinct items *)
  let small = List.filteri (fun i _ -> i < 500) (zipf_stream ~universe:20 ~n:500 5) in
  let make () = Sketch.topk ~k:64 in
  let whole = filled make small in
  let left = filled make (List.filteri (fun i _ -> i < 250) small)
  and right = filled make (List.filteri (fun i _ -> i >= 250) small) in
  check Alcotest.string "topk split = unsplit (under k distinct)"
    (Sketch.encode whole)
    (Sketch.encode (merged left right))

let test_merge_incompatible () =
  let expect_err label a b =
    match Sketch.merge a b with
    | Ok _ -> Alcotest.failf "%s merged" label
    | Error e ->
        check Alcotest.bool (label ^ " error is one line") false (String.contains e '\n')
  in
  expect_err "cm/hll" (Sketch.cm ~eps:0.01 ~delta:0.01) (Sketch.hll ~precision:12);
  expect_err "hll/topk" (Sketch.hll ~precision:12) (Sketch.topk ~k:8);
  expect_err "cm dims" (Sketch.cm ~eps:0.01 ~delta:0.01) (Sketch.cm ~eps:0.1 ~delta:0.01);
  expect_err "hll precision" (Sketch.hll ~precision:12) (Sketch.hll ~precision:13);
  expect_err "topk k" (Sketch.topk ~k:8) (Sketch.topk ~k:9);
  (* a failed merge_into leaves dst untouched *)
  let dst = Sketch.hll ~precision:12 in
  Sketch.add dst "x";
  let before = Sketch.encode dst in
  (match Sketch.merge_into dst (Sketch.topk ~k:4) with
  | Ok () -> Alcotest.fail "mismatched merge_into succeeded"
  | Error _ -> ());
  check Alcotest.string "dst untouched on error" before (Sketch.encode dst)

let test_constructor_validation () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check Alcotest.bool "eps 0" true (raises (fun () -> Sketch.cm ~eps:0.0 ~delta:0.1));
  check Alcotest.bool "eps nan" true (raises (fun () -> Sketch.cm ~eps:Float.nan ~delta:0.1));
  check Alcotest.bool "delta 1" true (raises (fun () -> Sketch.cm ~eps:0.1 ~delta:1.0));
  check Alcotest.bool "k 0" true (raises (fun () -> Sketch.topk ~k:0));
  check Alcotest.bool "precision 3" true (raises (fun () -> Sketch.hll ~precision:3));
  check Alcotest.bool "precision 17" true (raises (fun () -> Sketch.hll ~precision:17))

(* ------------------------------- codec ----------------------------------- *)

let test_codec_total () =
  let stream = zipf_stream ~universe:100 ~n:1000 13 in
  List.iter
    (fun (name, make) ->
      let sk = filled make stream in
      let bytes = Sketch.encode sk in
      (* round trip reconstructs exactly: canonical bytes and answers *)
      (match Sketch.decode bytes with
      | Error e -> Alcotest.failf "%s round trip: %s" name e
      | Ok back ->
          check Alcotest.string (name ^ " canonical re-encode") bytes (Sketch.encode back);
          check Alcotest.int (name ^ " estimate survives") (Sketch.estimate sk)
            (Sketch.estimate back);
          check Alcotest.string (name ^ " kind survives") (Sketch.kind_name sk)
            (Sketch.kind_name back));
      (* every strict prefix is an Error, never an exception *)
      for len = 0 to String.length bytes - 1 do
        match Sketch.decode (String.sub bytes 0 len) with
        | Ok _ -> Alcotest.failf "%s accepted a %d-byte prefix of %d" name len (String.length bytes)
        | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s raised on truncation at %d: %s" name len (Printexc.to_string e)
      done;
      (* a version bump is rejected by name *)
      let bumped = Bytes.of_string bytes in
      Bytes.set bumped 0 (Char.chr (Sketch.codec_version + 1));
      (match Sketch.decode (Bytes.to_string bumped) with
      | Ok _ -> Alcotest.failf "%s accepted a future codec version" name
      | Error e -> check Alcotest.bool (name ^ " version named: " ^ e) true (contains e "version"));
      (* arbitrary corruption never raises *)
      for i = 0 to min 40 (String.length bytes - 1) do
        let b = Bytes.of_string bytes in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
        match Sketch.decode (Bytes.to_string b) with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s raised on corrupt byte %d: %s" name i (Printexc.to_string e)
      done)
    makers;
  match Sketch.decode "" with
  | Ok _ -> Alcotest.fail "decoded empty string"
  | Error _ -> ()

(* ----------------- Agg_fn: the GSQL-facing sketch kinds ------------------ *)

let specs =
  [
    ("distinct", Agg.Distinct { precision = 12 });
    (* k above the test universe's distinct count: the summary stays in
       its exact regime, so split points cannot perturb the rendering *)
    ("heavy", Agg.Heavy { k = 128 });
    ("freq", Agg.Freq { eps = 0.01; delta = 0.01 });
  ]

let value_t = Alcotest.testable Value.pp Value.equal

(* the same law test_shard.ml proves for Count/Sum/Min/Max/Avg, for the
   sketch kinds: split a group's values across accumulators (an edge
   apiece), merge the partials, finalize — indistinguishable from one
   accumulator that saw everything. *)
let test_agg_split_merge () =
  let vs =
    List.init 400 (fun i ->
        if i mod 3 = 0 then Value.Ip (0x0A000000 + (i mod 37))
        else if i mod 3 = 1 then Value.Int (i mod 23)
        else Value.Str (Printf.sprintf "s%d" (i mod 11)))
  in
  List.iter
    (fun (name, sk) ->
      let final_kind = Agg.Sketch { sk; partial = false } in
      let whole = Agg.init final_kind in
      List.iter (fun v -> Agg.step whole v) vs;
      let expected = Agg.final whole in
      List.iter
        (fun cut ->
          let a = Agg.init final_kind and b = Agg.init final_kind in
          List.iteri (fun i v -> Agg.step (if i < cut then a else b) v) vs;
          Agg.merge_partial a b;
          check value_t (Printf.sprintf "%s split@%d" name cut) expected (Agg.final a))
        [ 0; 1; 133; 399; 400 ];
      (* the tree path: partial accumulators finalize to Value.Sketch
         states; an upper level steps those states in and finalizes *)
      let partial_kind = Agg.Sketch { sk; partial = true } in
      let pa = Agg.init partial_kind and pb = Agg.init partial_kind in
      List.iteri (fun i v -> Agg.step (if i < 200 then pa else pb) v) vs;
      let top = Agg.init final_kind in
      Agg.step top (Agg.final pa);
      Agg.step top (Agg.final pb);
      check value_t (name ^ " partial states relay") expected (Agg.final top);
      (* nulls are skipped, as for every other aggregate *)
      let n = Agg.init final_kind in
      Agg.step n Value.Null;
      check value_t (name ^ " null-only = empty")
        (Agg.final (Agg.init final_kind))
        (Agg.final n))
    specs

let test_agg_kind_wiring () =
  List.iter
    (fun (name, sk) ->
      let k = Agg.Sketch { sk; partial = false } in
      check Alcotest.(list string) (name ^ " sub is partial self")
        [ Agg.kind_to_string (Agg.Sketch { sk; partial = true }) ]
        (List.map Agg.kind_to_string (Agg.sub_kinds k));
      check Alcotest.(list string) (name ^ " super is final self")
        [ Agg.kind_to_string k ]
        (List.map Agg.kind_to_string (Agg.super_kind k));
      let p = Agg.Sketch { sk; partial = true } in
      check Alcotest.string (name ^ " relay keeps partial")
        (Agg.kind_to_string p)
        (Agg.kind_to_string (Agg.relay_kind p));
      check Alcotest.bool (name ^ " partial result is sketch-typed") true
        (Agg.result_ty p ~arg_ty:(Some Rts.Ty.Ip) = Rts.Ty.Sketch))
    specs;
  (* final renders: Int for distinct/freq, Str listing for heavy *)
  check Alcotest.bool "distinct final is Int" true
    (Agg.result_ty (Agg.Sketch { sk = Agg.Distinct { precision = 12 }; partial = false })
       ~arg_ty:(Some Rts.Ty.Ip)
    = Rts.Ty.Int);
  check Alcotest.bool "heavy final is Str" true
    (Agg.result_ty (Agg.Sketch { sk = Agg.Heavy { k = 4 }; partial = false })
       ~arg_ty:(Some Rts.Ty.Ip)
    = Rts.Ty.Str)

(* -------------------------------- suite --------------------------------- *)

let () =
  Alcotest.run "sketch"
    [
      ( "accuracy",
        [
          Alcotest.test_case "count-min error bound" `Quick test_cm_error_bound;
          Alcotest.test_case "heavy-hitter recall" `Quick test_heavy_hitter_recall;
          Alcotest.test_case "hll relative error" `Quick test_hll_relative_error;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "merge laws" `Quick test_merge_laws;
          Alcotest.test_case "split = unsplit" `Quick test_merge_split_equals_unsplit;
          Alcotest.test_case "incompatible merges" `Quick test_merge_incompatible;
          Alcotest.test_case "constructor validation" `Quick test_constructor_validation;
        ] );
      ("codec", [ Alcotest.test_case "total" `Quick test_codec_total ]);
      ( "agg_fn",
        [
          Alcotest.test_case "split/merge laws" `Quick test_agg_split_merge;
          Alcotest.test_case "kind wiring" `Quick test_agg_kind_wiring;
        ] );
    ]
