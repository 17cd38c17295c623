(* Tests for the GSQL compiler: lexer, parser, analyzer (types, windows,
   epochs), ordering inference, the LFTA/HFTA splitter, predicate lowering,
   expression codegen, and the pseudo-C emitter. *)

module Gsql = Gigascope_gsql
module Rts = Gigascope_rts
module Value = Rts.Value
module Ty = Rts.Ty
module Schema = Rts.Schema
module Order_prop = Rts.Order_prop
module Token = Gsql.Token
module Lexer = Gsql.Lexer
module Parser = Gsql.Parser
module Ast = Gsql.Ast
module Expr_ir = Gsql.Expr_ir
module Plan = Gsql.Plan
module Split = Gsql.Split
module Codegen = Gsql.Codegen

let check = Alcotest.check

let fresh_catalog () =
  let funcs = Rts.Func.create_registry () in
  Rts.Builtin_funcs.register_all funcs;
  let catalog = Gsql.Catalog.create funcs in
  Gigascope.Default_protocols.register catalog;
  catalog

let compile ?name text =
  let catalog = fresh_catalog () in
  Gsql.Compile.compile_query catalog ?name text

let compile_ok ?name text =
  match compile ?name text with
  | Ok c -> c
  | Error e -> Alcotest.failf "unexpected compile error: %s" e

let compile_err ?name text =
  match compile ?name text with
  | Error e -> e
  | Ok _ -> Alcotest.failf "expected a compile error for: %s" text

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------- lexer ---------------------------------- *)

let toks s = List.map (fun t -> t.Token.token) (Lexer.tokenize s)

let test_lexer_tokens () =
  (match toks "SELECT x FROM y" with
  | [Token.Kw_select; Token.Ident "x"; Token.Kw_from; Token.Ident "y"; Token.Eof] -> ()
  | _ -> Alcotest.fail "basic tokens");
  (match toks "a <> b <= c >= d << e >> f" with
  | [ Token.Ident _; Token.Neq; Token.Ident _; Token.Le; Token.Ident _; Token.Ge; Token.Ident _;
      Token.Shl; Token.Ident _; Token.Shr; Token.Ident _; Token.Eof ] -> ()
  | _ -> Alcotest.fail "operators");
  match toks "$param 0x1F 2.5 'it''s'" with
  | [Token.Param "param"; Token.Int_lit 31; Token.Float_lit f; Token.Str_lit s; Token.Eof] ->
      check (Alcotest.float 1e-9) "float" 2.5 f;
      check Alcotest.string "escaped quote" "it's" s
  | _ -> Alcotest.fail "literals"

let test_lexer_ip_literal () =
  match toks "10.1.2.3" with
  | [Token.Ip_lit ip; Token.Eof] ->
      check Alcotest.int "ip value" (Gigascope_packet.Ipaddr.of_string "10.1.2.3") ip
  | _ -> Alcotest.fail "dotted quad should lex as IP"

let test_lexer_comments () =
  match toks "a -- line comment\n b /* block\ncomment */ c" with
  | [Token.Ident "a"; Token.Ident "b"; Token.Ident "c"; Token.Eof] -> ()
  | _ -> Alcotest.fail "comments skipped"

let test_lexer_error_position () =
  match Lexer.tokenize "ab\n  #" with
  | exception Lexer.Error (_, line, col) ->
      check Alcotest.int "line" 2 line;
      check Alcotest.int "col" 3 col
  | _ -> Alcotest.fail "expected lexer error"

(* ------------------------------- parser --------------------------------- *)

let test_parse_paper_query () =
  let q =
    Parser.parse_query
      {|
      DEFINE { query_name tcpdest0; }
      SELECT destIP, destPort, time
      FROM eth0.tcp
      WHERE IPVersion = 4 and Protocol = 6
    |}
  in
  check Alcotest.(option string) "query name" (Some "tcpdest0") (Ast.query_name q);
  match q.Ast.body with
  | Ast.Select_q s ->
      check Alcotest.int "three items" 3 (List.length s.Ast.select);
      check Alcotest.int "one source" 1 (List.length s.Ast.from);
      let src = List.hd s.Ast.from in
      check Alcotest.(option string) "interface" (Some "eth0") src.Ast.interface;
      check Alcotest.string "protocol" "tcp" src.Ast.stream;
      check Alcotest.bool "where present" true (s.Ast.where <> None)
  | Ast.Merge_q _ -> Alcotest.fail "not a merge"

let test_parse_merge () =
  let q =
    Parser.parse_query
      {| DEFINE { query_name tcpdest; }
         MERGE a.time : b.time
         FROM tcpdest0 a, tcpdest1 b |}
  in
  match q.Ast.body with
  | Ast.Merge_q m ->
      check Alcotest.int "two columns" 2 (List.length m.Ast.merge_cols);
      check Alcotest.(list (pair string string)) "columns" [("a", "time"); ("b", "time")]
        m.Ast.merge_cols
  | Ast.Select_q _ -> Alcotest.fail "not a select"

let test_parse_group_by_having_sample () =
  let q =
    Parser.parse_query
      {| SELECT tb, count(*) as cnt FROM eth0.tcp
         GROUP BY time/60 as tb HAVING count(*) > 5 SAMPLE 0.25 |}
  in
  match q.Ast.body with
  | Ast.Select_q s ->
      check Alcotest.int "group by" 1 (List.length s.Ast.group_by);
      check Alcotest.bool "having" true (s.Ast.having <> None);
      check Alcotest.(option (float 1e-9)) "sample" (Some 0.25) s.Ast.sample
  | _ -> Alcotest.fail "shape"

let test_parse_precedence () =
  (* & binds tighter than <>, which binds tighter than and *)
  match Parser.parse_expr "flags & 2 <> 0 and x = 1" with
  | Ast.Binop (Ast.And, Ast.Binop (Ast.Ne, Ast.Binop (Ast.Band, _, _), _), Ast.Binop (Ast.Eq, _, _)) -> ()
  | e -> Alcotest.failf "unexpected parse: %s" (Ast.expr_to_string e)

let test_parse_arith_precedence () =
  match Parser.parse_expr "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Int_lit 1, Ast.Binop (Ast.Mul, Ast.Int_lit 2, Ast.Int_lit 3)) -> ()
  | e -> Alcotest.failf "mul should bind tighter: %s" (Ast.expr_to_string e)

let test_parse_protocol_ddl () =
  let prog =
    Parser.parse_program
      {| PROTOCOL myproto {
           uint ts (increasing);
           uint start (banded_increasing 30);
           ip   src;
           string payload;
         }
         SELECT ts FROM myproto |}
  in
  check Alcotest.int "two decls" 2 (List.length prog);
  match List.hd prog with
  | Ast.Protocol_decl p ->
      check Alcotest.string "name" "myproto" p.Ast.protocol_name;
      check Alcotest.int "fields" 4 (List.length p.Ast.fields)
  | _ -> Alcotest.fail "expected protocol decl"

let test_parse_errors () =
  let bad = ["SELECT"; "SELECT a FROM"; "MERGE a FROM x"; "SELECT a FROM b WHERE"; "DEFINE { x }"] in
  List.iter
    (fun text ->
      match Parser.parse_query text with
      | exception Parser.Error _ -> ()
      | _ -> Alcotest.failf "should not parse: %s" text)
    bad

let test_parse_protocol_as_field () =
  (* "protocol" is a keyword only at declaration position *)
  match Parser.parse_expr "protocol = 6" with
  | Ast.Binop (Ast.Eq, Ast.Ident "protocol", Ast.Int_lit 6) -> ()
  | e -> Alcotest.failf "protocol should parse as a field: %s" (Ast.expr_to_string e)

(* ------------------------------ analyzer -------------------------------- *)

let test_analyze_simple_select () =
  let c = compile_ok ~name:"q" "SELECT destip, destport, time FROM eth0.tcp WHERE protocol = 6" in
  let schema = c.Gsql.Compile.plan.Plan.out_schema in
  check Alcotest.int "arity" 3 (Schema.arity schema);
  check Alcotest.string "time keeps ordering" "increasing"
    (Order_prop.to_string (Schema.field_at schema 2).Schema.order);
  check Alcotest.string "destip unordered" "unordered"
    (Order_prop.to_string (Schema.field_at schema 0).Schema.order)

let test_analyze_unknown_field () =
  let e = compile_err "SELECT nosuchfield FROM eth0.tcp" in
  check Alcotest.bool "reports the field" true (contains e "nosuchfield")

let test_analyze_type_errors () =
  ignore (compile_err "SELECT time FROM eth0.tcp WHERE payload + 1 > 2");
  ignore (compile_err "SELECT time FROM eth0.tcp WHERE time = 'str'");
  ignore (compile_err "SELECT time FROM eth0.tcp WHERE time");
  ignore (compile_err "SELECT time FROM eth0.tcp WHERE not time > 1 and payload")

let test_analyze_unknown_function () =
  ignore (compile_err "SELECT nosuchfn(time) FROM eth0.tcp")

let test_analyze_group_by_epoch () =
  let c =
    compile_ok ~name:"g" "SELECT tb, count(*) as c FROM eth0.tcp GROUP BY time/60 as tb"
  in
  (match c.Gsql.Compile.plan.Plan.body with
  | Plan.Agg a ->
      check Alcotest.(option int) "epoch is key 0" (Some 0) a.Plan.epoch;
      check Alcotest.(option int) "epoch input field" (Some 0) a.Plan.epoch_in_field
  | _ -> Alcotest.fail "expected aggregation");
  let schema = c.Gsql.Compile.plan.Plan.out_schema in
  check Alcotest.string "bucketed time is monotone out" "increasing"
    (Order_prop.to_string (Schema.field_at schema 0).Schema.order)

let test_analyze_select_item_must_be_key_or_agg () =
  ignore (compile_err "SELECT srcip, count(*) FROM eth0.tcp GROUP BY time/60 as tb")

let test_analyze_group_key_by_expression () =
  (* selecting the group expression itself, not via alias *)
  ignore (compile_ok "SELECT time/60, count(*) FROM eth0.tcp GROUP BY time/60")

let test_analyze_agg_dedup () =
  let c =
    compile_ok ~name:"d"
      "SELECT tb, count(*) as a, count(*) as b FROM eth0.tcp GROUP BY time/60 as tb"
  in
  match c.Gsql.Compile.plan.Plan.body with
  | Plan.Agg a -> check Alcotest.int "identical aggs deduplicated" 1 (List.length a.Plan.aggs)
  | _ -> Alcotest.fail "expected aggregation"

let test_analyze_join_window () =
  let catalog = fresh_catalog () in
  let program =
    {|
    DEFINE { query_name l; } SELECT time, srcip FROM eth0.tcp
    DEFINE { query_name r; } SELECT time, destip FROM eth1.tcp
    DEFINE { query_name j; }
    SELECT a.time, a.srcip, b.destip
    FROM l a, r b
    WHERE a.time >= b.time - 2 and a.time <= b.time + 1 and a.srcip = b.destip
  |}
  in
  match Gsql.Compile.compile_program catalog program with
  | Error e -> Alcotest.fail e
  | Ok compiled -> (
      let j = List.nth compiled 2 in
      match j.Gsql.Compile.plan.Plan.body with
      | Plan.Join jb ->
          check (Alcotest.float 1e-9) "window lo" (-2.0) jb.Plan.win_lo;
          check (Alcotest.float 1e-9) "window hi" 1.0 jb.Plan.win_hi;
          check Alcotest.int "left ordered field" 0 jb.Plan.left_ord
      | _ -> Alcotest.fail "expected join")

let test_analyze_join_equality_window () =
  let catalog = fresh_catalog () in
  let program =
    {|
    DEFINE { query_name l; } SELECT time, srcport FROM eth0.tcp
    DEFINE { query_name r; } SELECT time, destport FROM eth1.tcp
    DEFINE { query_name j; }
    SELECT a.time FROM l a, r b WHERE a.time = b.time
  |}
  in
  match Gsql.Compile.compile_program catalog program with
  | Error e -> Alcotest.fail e
  | Ok compiled -> (
      match (List.nth compiled 2).Gsql.Compile.plan.Plan.body with
      | Plan.Join jb ->
          check (Alcotest.float 1e-9) "equality lo" 0.0 jb.Plan.win_lo;
          check (Alcotest.float 1e-9) "equality hi" 0.0 jb.Plan.win_hi
      | _ -> Alcotest.fail "expected join")

let test_analyze_join_output_mode () =
  let check_prop ~props expected =
    let catalog = fresh_catalog () in
    let program =
      Printf.sprintf
        {|
        DEFINE { query_name l; } SELECT time, srcip FROM eth0.tcp
        DEFINE { query_name r; } SELECT time, destip FROM eth1.tcp
        DEFINE { query_name j; %s }
        SELECT a.time, b.destip FROM l a, r b
        WHERE a.time >= b.time - 2 and a.time <= b.time + 2
      |}
        props
    in
    match Gsql.Compile.compile_program catalog program with
    | Error e -> Alcotest.fail e
    | Ok compiled ->
        let j = List.nth compiled 2 in
        check Alcotest.string ("output ordering with props " ^ props) expected
          (Order_prop.to_string
             (Schema.field_at j.Gsql.Compile.plan.Plan.out_schema 0).Schema.order)
  in
  (* default algorithm: probe order, banded by the window span *)
  check_prop ~props:"" "banded increasing(4)";
  (* the buffered algorithm: monotone, at the cost of buffer space *)
  check_prop ~props:"join_output ordered;" "increasing"

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let join_window_extraction_property =
  qtest "window extraction recovers random bounds" QCheck.(pair (int_range 0 50) (int_range 0 50))
    (fun (x, y) ->
      let catalog = fresh_catalog () in
      let program =
        Printf.sprintf
          {|
          DEFINE { query_name l; } SELECT time, srcport FROM eth0.tcp
          DEFINE { query_name r; } SELECT time, destport FROM eth1.tcp
          DEFINE { query_name j; }
          SELECT a.time FROM l a, r b
          WHERE a.time >= b.time - %d and a.time <= b.time + %d
        |}
          x y
      in
      match Gsql.Compile.compile_program catalog program with
      | Error e -> QCheck.Test.fail_reportf "compile failed: %s" e
      | Ok compiled -> (
          match (List.nth compiled 2).Gsql.Compile.plan.Plan.body with
          | Plan.Join jb ->
              jb.Plan.win_lo = -.float_of_int x && jb.Plan.win_hi = float_of_int y
          | _ -> false))

let test_analyze_join_without_window_rejected () =
  (* a windowless join is no longer a hard analyzer error: it compiles,
     and the memory certifier (not the analyzer) rules it unbounded —
     the admission gate then decides whether it may run *)
  let catalog = fresh_catalog () in
  let program =
    {|
    DEFINE { query_name l; } SELECT time, srcport FROM eth0.tcp
    DEFINE { query_name r; } SELECT time, destport FROM eth1.tcp
    DEFINE { query_name j; }
    SELECT a.time FROM l a, r b WHERE a.srcport = b.destport
  |}
  in
  match Gsql.Compile.compile_program catalog program with
  | Error e -> Alcotest.fail ("windowless join must still compile: " ^ e)
  | Ok compiled -> (
      match List.rev compiled with
      | c :: _ ->
          let cert = Gsql.Certify.certify c.Gsql.Compile.split in
          if Gsql.Certify.finite cert then
            Alcotest.fail "windowless join certified finite"
      | [] -> Alcotest.fail "no queries compiled")

let test_analyze_three_way_join_rejected () =
  ignore (compile_err "SELECT a.time FROM eth0.tcp a, eth1.tcp b, eth2.tcp c WHERE a.time = b.time")

let test_analyze_merge () =
  let catalog = fresh_catalog () in
  let program =
    {|
    DEFINE { query_name t0; } SELECT time, len FROM eth0.tcp
    DEFINE { query_name t1; } SELECT time, len FROM eth1.tcp
    DEFINE { query_name m; } MERGE a.time : b.time FROM t0 a, t1 b
  |}
  in
  match Gsql.Compile.compile_program catalog program with
  | Error e -> Alcotest.fail e
  | Ok compiled -> (
      match (List.nth compiled 2).Gsql.Compile.plan.Plan.body with
      | Plan.Merge m -> check Alcotest.int "merge field" 0 m.Plan.merge_field
      | _ -> Alcotest.fail "expected merge")

let test_analyze_merge_incompatible () =
  let catalog = fresh_catalog () in
  let program =
    {|
    DEFINE { query_name t0; } SELECT time, len FROM eth0.tcp
    DEFINE { query_name t1; } SELECT time, payload FROM eth1.tcp
    DEFINE { query_name m; } MERGE a.time : b.time FROM t0 a, t1 b
  |}
  in
  match Gsql.Compile.compile_program catalog program with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "union-incompatible merge accepted"

let test_analyze_merge_unordered_column_rejected () =
  let catalog = fresh_catalog () in
  let program =
    {|
    DEFINE { query_name t0; } SELECT len, time FROM eth0.tcp
    DEFINE { query_name t1; } SELECT len, time FROM eth1.tcp
    DEFINE { query_name m; } MERGE a.len : b.len FROM t0 a, t1 b
  |}
  in
  match Gsql.Compile.compile_program catalog program with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "merge on unordered column accepted"

let test_analyze_param_typing () =
  let c = compile_ok "SELECT time FROM eth0.tcp WHERE destport = $p" in
  check Alcotest.(list (pair string string)) "param typed from comparison" [("p", "int")]
    (List.map (fun (n, t) -> (n, Ty.to_string t)) c.Gsql.Compile.plan.Plan.params)

let test_analyze_handle_must_be_literal () =
  ignore (compile_err "SELECT time FROM eth0.tcp WHERE str_match_regex(payload, payload) = TRUE")

let test_analyze_nonrepeating_through_hash () =
  (* the paper's Section 2.1 property 2: a hash of a sequence number is
     monotone nonrepeating *)
  let catalog = fresh_catalog () in
  let program =
    {|
    PROTOCOL seqsrc { uint seqno (strictly_increasing); uint v; }
    DEFINE { query_name hashed; }
    SELECT hash32(seqno) as h, v FROM lab.seqsrc
  |}
  in
  match Gsql.Compile.compile_program catalog program with
  | Error e -> Alcotest.fail e
  | Ok [c] ->
      check Alcotest.string "hash of strict attr is nonrepeating" "monotone nonrepeating"
        (Order_prop.to_string (Schema.field_at c.Gsql.Compile.plan.Plan.out_schema 0).Schema.order)
  | Ok _ -> Alcotest.fail "expected one query"

let test_analyze_in_group_imputation () =
  (* the paper's Netflow example: min(start) of an epoch-closed flow
     aggregation is increasing within each flow's group *)
  let c =
    compile_ok ~name:"flows"
      {| SELECT tb, srcip, destip, min(time) as first_seen, count(*) as c
         FROM eth0.tcp
         GROUP BY time/10 as tb, srcip, destip |}
  in
  let schema = c.Gsql.Compile.plan.Plan.out_schema in
  check Alcotest.string "min(time) increasing in flow group"
    "increasing in group (srcip, destip)"
    (Order_prop.to_string (Schema.field_at schema 3).Schema.order);
  check Alcotest.string "count stays unordered" "unordered"
    (Order_prop.to_string (Schema.field_at schema 4).Schema.order)

let test_analyze_ddl_protocol_usable () =
  let catalog = fresh_catalog () in
  let program =
    {|
    PROTOCOL sensor { uint ts (increasing); uint reading; }
    DEFINE { query_name hot; }
    SELECT ts, reading FROM lab.sensor WHERE reading > 100
  |}
  in
  match Gsql.Compile.compile_program catalog program with
  | Ok [c] ->
      check Alcotest.string "ordering from DDL annotation" "increasing"
        (Order_prop.to_string (Schema.field_at c.Gsql.Compile.plan.Plan.out_schema 0).Schema.order)
  | Ok _ -> Alcotest.fail "expected one query"
  | Error e -> Alcotest.fail e

(* ------------------------------ splitter -------------------------------- *)

let kinds c =
  List.map
    (fun (p : Split.phys_node) ->
      match p.Split.pkind with
      | Rts.Node.Lfta -> "lfta"
      | Rts.Node.Hfta -> "hfta"
      | Rts.Node.Source -> "source")
    c.Gsql.Compile.split.Split.phys

let test_split_simple_select_is_lfta () =
  let c = compile_ok ~name:"s" "SELECT time, destport FROM eth0.tcp WHERE protocol = 6" in
  check Alcotest.(list string) "entirely an LFTA" ["lfta"] (kinds c)

let test_split_regex_forces_hfta () =
  let c =
    compile_ok ~name:"rx"
      {| SELECT time FROM eth0.tcp
         WHERE destport = 80 and str_match_regex(payload, 'HTTP') = TRUE |}
  in
  check Alcotest.(list string) "LFTA + HFTA" ["lfta"; "hfta"] (kinds c);
  (* the LFTA must forward the payload for the HFTA's regex *)
  let lfta = List.hd c.Gsql.Compile.split.Split.phys in
  check Alcotest.bool "payload forwarded" true
    (Schema.field_index lfta.Split.pschema "payload" <> None);
  (* and the cheap conjunct stays below *)
  match lfta.Split.pbody with
  | Plan.Select { sel_pred = Some _; _ } -> ()
  | _ -> Alcotest.fail "cheap predicate should stay in the LFTA"

let test_split_aggregation () =
  let c =
    compile_ok ~name:"agg"
      "SELECT tb, destport, count(*) as c, avg(len) as a FROM eth0.tcp GROUP BY time/1 as tb, destport"
  in
  check Alcotest.(list string) "sub + super" ["lfta"; "hfta"] (kinds c);
  let lfta = List.hd c.Gsql.Compile.split.Split.phys in
  (* avg splits into sum + count partials *)
  match lfta.Split.pbody with
  | Plan.Agg a ->
      check Alcotest.int "count + avg -> 3 partials" 3 (List.length a.Plan.aggs);
      check Alcotest.bool "lfta direct-mapped table sized" true (lfta.Split.ptable_bits > 0)
  | _ -> Alcotest.fail "expected LFTA aggregation"

let test_split_stream_select_is_hfta () =
  let catalog = fresh_catalog () in
  let program =
    {|
    DEFINE { query_name base; } SELECT time, destport FROM eth0.tcp
    DEFINE { query_name over; } SELECT time FROM base WHERE destport = 80
  |}
  in
  match Gsql.Compile.compile_program catalog program with
  | Error e -> Alcotest.fail e
  | Ok compiled ->
      let over = List.nth compiled 1 in
      check Alcotest.(list string) "stream input -> hfta only" ["hfta"] (kinds over)

let test_split_nic_hints () =
  let c = compile_ok ~name:"nh" "SELECT time, destport FROM eth0.tcp WHERE destport = 80" in
  let lfta = List.hd c.Gsql.Compile.split.Split.phys in
  match lfta.Split.pnic with
  | Some { Split.nic_filter = Some _; snap_len; payload_guard; _ } ->
      check Alcotest.int "headers-only snap" 134 snap_len;
      check Alcotest.bool "no payload, no guard" true (Option.is_none payload_guard)
  | _ -> Alcotest.fail "expected a lowered NIC filter"

(* The hint also names the fields the LFTA reads and its payload guard:
   the conjuncts that read no payload and hold no $param and no call. *)
let test_split_nic_payload_snap () =
  let c =
    compile_ok ~name:"np"
      "SELECT time, payload FROM eth0.tcp WHERE destport = 80 and srcport > $p \
       and truncate_ip(srcip, 16) = destip and payload <> ''"
  in
  let lfta = List.hd c.Gsql.Compile.split.Split.phys in
  let schema = Gigascope.Default_protocols.tcp.Gigascope.Default_protocols.catalog_entry.Gsql.Catalog.schema in
  let name i = (Rts.Schema.field_at schema i).Rts.Schema.name in
  match lfta.Split.pnic with
  | Some { Split.snap_len; fields_needed; payload_guard; _ } ->
      check Alcotest.int "full snap for payload" 65535 snap_len;
      check Alcotest.(list string) "fields the LFTA reads"
        [ "time"; "srcip"; "destip"; "srcport"; "destport"; "payload" ]
        (List.map name fields_needed);
      check Alcotest.(option (list string)) "payload guard" (Some [ "(destport = 80)" ])
        (Option.map (List.map (Expr_ir.to_string ~names:name)) payload_guard)
  | None -> Alcotest.fail "expected a NIC hint"

let test_split_lfta_bits_property () =
  let c =
    compile_ok
      {| DEFINE { query_name bits; lfta_bits 6; }
         SELECT tb, count(*) as c FROM eth0.tcp GROUP BY time/1 as tb |}
  in
  let lfta = List.hd c.Gsql.Compile.split.Split.phys in
  check Alcotest.int "lfta_bits honoured" 6 lfta.Split.ptable_bits

let test_split_join_feeders () =
  let catalog = fresh_catalog () in
  let program =
    {|
    DEFINE { query_name j; }
    SELECT a.time, a.srcip FROM eth0.tcp a, eth1.udp b
    WHERE a.time = b.time and a.srcport = 53
  |}
  in
  match Gsql.Compile.compile_program catalog program with
  | Error e -> Alcotest.fail e
  | Ok [c] ->
      check Alcotest.(list string) "two feeders + join" ["lfta"; "lfta"; "hfta"] (kinds c)
  | Ok _ -> Alcotest.fail "expected one query"

let test_lower_filter_weakening () =
  (* an unlowerable conjunct is dropped, not fatal *)
  let bpf_of_field i = if i = 0 then Some Gigascope_bpf.Filter.Dst_port else None in
  let pred =
    Expr_ir.Binop
      ( Ast.And,
        Expr_ir.Binop (Ast.Eq, Expr_ir.Field (0, Ty.Int), Expr_ir.Const (Value.Int 80), Ty.Bool),
        Expr_ir.Binop (Ast.Eq, Expr_ir.Field (9, Ty.Int), Expr_ir.Const (Value.Int 1), Ty.Bool),
        Ty.Bool )
  in
  match Split.lower_filter ~bpf_of_field pred with
  | Some (Gigascope_bpf.Filter.Cmp (Gigascope_bpf.Filter.Dst_port, Gigascope_bpf.Filter.Eq, 80)) -> ()
  | Some f -> Alcotest.failf "unexpected filter %s" (Format.asprintf "%a" Gigascope_bpf.Filter.pp f)
  | None -> Alcotest.fail "lowerable conjunct lost"

(* ------------------------------ codegen --------------------------------- *)

let eval_expr text row =
  (* build a tiny schema: a:int, b:int and evaluate over [row] *)
  let funcs = Rts.Func.create_registry () in
  Rts.Builtin_funcs.register_all funcs;
  let catalog = Gsql.Catalog.create funcs in
  Gsql.Catalog.add_stream catalog ~name:"s"
    (Schema.make
       [
         { Schema.name = "a"; ty = Ty.Int; order = Order_prop.Monotone Order_prop.Asc };
         { Schema.name = "b"; ty = Ty.Int; order = Order_prop.Unordered };
       ]);
  match Gsql.Compile.compile_query catalog ~name:"e" (Printf.sprintf "SELECT %s AS v FROM s" text) with
  | Error e -> Alcotest.failf "compile: %s" e
  | Ok c -> (
      match c.Gsql.Compile.plan.Plan.body with
      | Plan.Select { sel_items = [(ir, _)]; _ } -> (
          let params = Hashtbl.create 4 in
          Hashtbl.replace params "p" (Value.Int 7);
          match Codegen.compile_expr ~params ir with
          | Ok f -> ( try Some (f row) with Value.No_value -> None)
          | Error e -> Alcotest.failf "codegen: %s" e)
      | _ -> Alcotest.fail "unexpected plan shape")

let test_codegen_arithmetic () =
  let row = [| Value.Int 17; Value.Int 5 |] in
  check Alcotest.bool "add" true (eval_expr "a + b" row = Some (Value.Int 22));
  check Alcotest.bool "integer division" true (eval_expr "a / b" row = Some (Value.Int 3));
  check Alcotest.bool "mod" true (eval_expr "a % b" row = Some (Value.Int 2));
  check Alcotest.bool "band" true (eval_expr "a & 1" row = Some (Value.Int 1));
  check Alcotest.bool "shift" true (eval_expr "a >> 2" row = Some (Value.Int 4));
  check Alcotest.bool "neg" true (eval_expr "-a" row = Some (Value.Int (-17)));
  check Alcotest.bool "cmp" true (eval_expr "a > b" row = Some (Value.Bool true));
  check Alcotest.bool "param" true (eval_expr "$p + 1" row = Some (Value.Int 8))

let test_codegen_division_by_zero_discards () =
  let row = [| Value.Int 17; Value.Int 0 |] in
  check Alcotest.bool "div by zero = no value" true (eval_expr "a / b" row = None)

let test_codegen_short_circuit () =
  let row = [| Value.Int 0; Value.Int 0 |] in
  (* the right side would divide by zero, but the left side is false *)
  check Alcotest.bool "and short-circuits" true
    (eval_expr "a > 1 and a / b > 0" row = Some (Value.Bool false))

(* The option-returning expression compiler that raising closures
   replaced, kept verbatim as the reference the differential below holds
   the compiled closures to. *)
module Reference = struct
  module Func = Rts.Func

  let ( let* ) = Result.bind
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt

  let as_ints a b =
    match (a, b) with
    | (Value.Int x | Value.Ip x), (Value.Int y | Value.Ip y) -> Some (x, y)
    | _ -> None

  let as_floats a b =
    match (Value.to_float a, Value.to_float b) with
    | Some x, Some y -> Some (x, y)
    | _ -> None

  let arith op a b =
    match (op, as_ints a b) with
    | Ast.Add, Some (x, y) -> Some (Value.Int (x + y))
    | Ast.Sub, Some (x, y) -> Some (Value.Int (x - y))
    | Ast.Mul, Some (x, y) -> Some (Value.Int (x * y))
    | Ast.Div, Some (x, y) -> if y = 0 then None else Some (Value.Int (x / y))
    | Ast.Mod, Some (x, y) -> if y = 0 then None else Some (Value.Int (x mod y))
    | Ast.Band, Some (x, y) -> Some (Value.Int (x land y))
    | Ast.Bor, Some (x, y) -> Some (Value.Int (x lor y))
    | Ast.Shl, Some (x, y) -> Some (Value.Int (x lsl y))
    | Ast.Shr, Some (x, y) -> Some (Value.Int (x lsr y))
    | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), None -> (
        match (op, as_floats a b) with
        | Ast.Add, Some (x, y) -> Some (Value.Float (x +. y))
        | Ast.Sub, Some (x, y) -> Some (Value.Float (x -. y))
        | Ast.Mul, Some (x, y) -> Some (Value.Float (x *. y))
        | Ast.Div, Some (x, y) -> if y = 0.0 then None else Some (Value.Float (x /. y))
        | _ -> None)
    | _ -> None

  let normalize_pair a b =
    match (a, b) with
    | Value.Ip x, Value.Int _ -> (Value.Int x, b)
    | Value.Int _, Value.Ip y -> (a, Value.Int y)
    | _ -> (a, b)

  let compare_vals op a b =
    let a, b = normalize_pair a b in
    let c = Value.compare a b in
    let r =
      match op with
      | Ast.Eq -> c = 0
      | Ast.Ne -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0
      | _ -> false
    in
    Some (Value.Bool r)

  let rec compile_expr ~params (e : Expr_ir.t) =
    match e with
    | Expr_ir.Const v -> Ok (fun _ -> Some v)
    | Expr_ir.Field (i, _) -> Ok (fun tup -> if i < Array.length tup then Some tup.(i) else None)
    | Expr_ir.Param (name, _) -> Ok (fun _ -> Hashtbl.find_opt params name)
    | Expr_ir.Unop (Ast.Not, a) ->
        let* fa = compile_expr ~params a in
        Ok (fun tup -> match fa tup with Some (Value.Bool b) -> Some (Value.Bool (not b)) | _ -> None)
    | Expr_ir.Unop (Ast.Neg, a) ->
        let* fa = compile_expr ~params a in
        Ok
          (fun tup ->
            match fa tup with
            | Some (Value.Int i) -> Some (Value.Int (-i))
            | Some (Value.Float f) -> Some (Value.Float (-.f))
            | _ -> None)
    | Expr_ir.Binop (Ast.And, a, b, _) ->
        let* fa = compile_expr ~params a in
        let* fb = compile_expr ~params b in
        Ok
          (fun tup ->
            match fa tup with
            | Some v when not (Value.is_truthy v) -> Some (Value.Bool false)
            | Some _ -> (
                match fb tup with Some w -> Some (Value.Bool (Value.is_truthy w)) | None -> None)
            | None -> None)
    | Expr_ir.Binop (Ast.Or, a, b, _) ->
        let* fa = compile_expr ~params a in
        let* fb = compile_expr ~params b in
        Ok
          (fun tup ->
            match fa tup with
            | Some v when Value.is_truthy v -> Some (Value.Bool true)
            | Some _ -> (
                match fb tup with Some w -> Some (Value.Bool (Value.is_truthy w)) | None -> None)
            | None -> None)
    | Expr_ir.Binop (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b, _) ->
        let* fa = compile_expr ~params a in
        let* fb = compile_expr ~params b in
        Ok
          (fun tup ->
            match (fa tup, fb tup) with Some va, Some vb -> compare_vals op va vb | _ -> None)
    | Expr_ir.Binop (op, a, b, _) ->
        let* fa = compile_expr ~params a in
        let* fb = compile_expr ~params b in
        Ok (fun tup -> match (fa tup, fb tup) with Some va, Some vb -> arith op va vb | _ -> None)
    | Expr_ir.Call (f, args) ->
        let handle_value idx =
          match List.nth_opt args idx with
          | Some (Expr_ir.Const v) -> Ok v
          | Some (Expr_ir.Param (name, _)) -> (
              match Hashtbl.find_opt params name with
              | Some v -> Ok v
              | None -> err "function %s: handle parameter $%s has no value" f.Func.name name)
          | _ -> err "function %s: handle argument %d is not a literal" f.Func.name idx
        in
        let rec handles acc = function
          | [] -> Ok (List.rev acc)
          | idx :: rest ->
              let* v = handle_value idx in
              handles (v :: acc) rest
        in
        let* handle_values = handles [] f.Func.handle_args in
        let* impl = f.Func.instantiate handle_values in
        let rec compile_args acc = function
          | [] -> Ok (List.rev acc)
          | a :: rest ->
              let* fa = compile_expr ~params a in
              compile_args (fa :: acc) rest
        in
        let* arg_fns = compile_args [] args in
        let arg_fns = Array.of_list arg_fns in
        let n = Array.length arg_fns in
        Ok
          (fun tup ->
            let vals = Array.make n Value.Null in
            let ok = ref true in
            Array.iteri
              (fun i fa -> match fa tup with Some v -> vals.(i) <- v | None -> ok := false)
              arg_fns;
            if !ok then impl vals else None)
end

(* Random well-typed expressions over a fixed row layout. *)
let diff_row_tys = [| Ty.Int; Ty.Ip; Ty.Float; Ty.Str; Ty.Bool; Ty.Int |]

let diff_funcs =
  let reg = Rts.Func.create_registry () in
  Rts.Builtin_funcs.register_all reg;
  fun name -> Option.get (Rts.Func.find reg name)

let gen_typed_expr =
  let open QCheck.Gen in
  let field ty =
    let idxs = List.filter (fun i -> diff_row_tys.(i) = ty) [ 0; 1; 2; 3; 4; 5 ] in
    map (fun i -> Expr_ir.Field (i, ty)) (oneofl idxs)
  in
  let int_const = map (fun i -> Value.Int i) (oneof [ int_range (-5) 5; int_range 0 64; int ]) in
  let const ty =
    match ty with
    | Ty.Int -> int_const
    | Ty.Ip -> map (fun i -> Value.Ip i) (oneofl [ 0x0a000001; 0x0b000009; 0x0c000009; 0 ])
    | Ty.Float -> map (fun f -> Value.Float f) (oneofl [ 0.0; -0.0; 1.5; -2.25; 1e300; 3.0 ])
    | Ty.Str -> map (fun s -> Value.Str s) (oneofl [ ""; "a"; "HTTP/1.1"; "b" ])
    | _ -> map (fun b -> Value.Bool b) bool
  in
  let leaf ty =
    frequency
      [
        (3, map (fun v -> Expr_ir.Const v) (const ty));
        (3, field ty);
        (1, return (Expr_ir.Const Value.Null));
        (1, return (Expr_ir.Param ("p", ty)));
        (* past the end of the row: no value *)
        (1, return (Expr_ir.Field (9, ty)));
      ]
  in
  let lpm = Expr_ir.Const (Value.Str "10.0.0.0/8 7018\n11.0.0.0/8 701\n") in
  let rec expr ty depth =
    if depth = 0 then leaf ty
    else
      let sub ty = expr ty (depth - 1) in
      let binop ops aty bty rty =
        map3 (fun op a b -> Expr_ir.Binop (op, a, b, rty)) (oneofl ops) (sub aty) (sub bty)
      in
      let arith = Ast.[ Add; Sub; Mul; Div; Mod; Band; Bor; Shl; Shr ] in
      let cmp = Ast.[ Eq; Ne; Lt; Le; Gt; Ge ] in
      match ty with
      | Ty.Int ->
          frequency
            [
              (2, leaf ty);
              (4, binop arith Ty.Int Ty.Int Ty.Int);
              (1, binop arith Ty.Ip Ty.Int Ty.Int);
              (1, map (fun a -> Expr_ir.Unop (Ast.Neg, a)) (sub Ty.Int));
              (1, map (fun a -> Expr_ir.Call (diff_funcs "getlpmid", [ a; lpm ])) (sub Ty.Ip));
            ]
      | Ty.Float ->
          frequency
            [
              (2, leaf ty);
              (2, binop Ast.[ Add; Sub; Mul; Div ] Ty.Float Ty.Float Ty.Float);
              (1, binop Ast.[ Add; Sub; Mul; Div ] Ty.Float Ty.Int Ty.Float);
              (1, map (fun a -> Expr_ir.Unop (Ast.Neg, a)) (sub Ty.Float));
              (* fdiv by a zero divisor is Null *)
              (2, map2 (fun a b -> Expr_ir.Call (diff_funcs "fdiv", [ a; b ])) (sub Ty.Float) (sub Ty.Int));
            ]
      | Ty.Bool ->
          frequency
            [
              (2, leaf ty);
              (2, binop cmp Ty.Int Ty.Int Ty.Bool);
              (1, binop cmp Ty.Ip Ty.Ip Ty.Bool);
              (1, binop cmp Ty.Ip Ty.Int Ty.Bool);
              (1, binop cmp Ty.Float Ty.Int Ty.Bool);
              (1, binop cmp Ty.Str Ty.Str Ty.Bool);
              (2, binop Ast.[ And; Or ] Ty.Bool Ty.Bool Ty.Bool);
              (1, map (fun a -> Expr_ir.Unop (Ast.Not, a)) (sub Ty.Bool));
            ]
      | _ -> leaf ty
  in
  sized_size (int_range 0 4) (fun depth ->
      oneofl [ Ty.Int; Ty.Float; Ty.Bool; Ty.Ip; Ty.Str ] >>= fun ty -> expr ty depth)

let gen_row =
  let open QCheck.Gen in
  let int_v = oneof [ int_range (-3) 3; int ] in
  map
    (fun (a, ip, f, (s, b, z)) ->
      [| Value.Int a; Value.Ip ip; Value.Float f; Value.Str s; Value.Bool b; Value.Int z |])
    (quad int_v
       (oneofl [ 0x0a010009; 0x0b000009; 0x0c000009 ])
       (oneofl [ 0.0; 0.5; -3.0; 7.25 ])
       (triple (oneofl [ "a"; "b"; "" ]) bool (oneofl [ 0; 1; 2 ])))

(* Three settings of $p in turn, evaluated by closures compiled once:
   each set, unset or changed relative to the last. *)
let gen_param_steps =
  QCheck.Gen.(
    list_repeat 3
      (opt (oneofl [ Value.Int 0; Value.Int 3; Value.Ip 0x0a000001; Value.Float 2.5; Value.Str "a"; Value.Bool true; Value.Null ])))

let constructor = function
  | Value.Null -> 0
  | Value.Bool _ -> 1
  | Value.Int _ -> 2
  | Value.Float _ -> 3
  | Value.Str _ -> 4
  | Value.Ip _ -> 5
  | Value.Sketch _ -> 6

let codegen_matches_reference =
  qtest ~count:2000 "compiled closures = option-returning reference"
    (QCheck.make
       ~print:(fun (e, row, _) ->
         Printf.sprintf "%s over [%s]" (Expr_ir.to_string e)
           (String.concat "; " (Array.to_list (Array.map Value.to_string row))))
       QCheck.Gen.(triple gen_typed_expr gen_row gen_param_steps))
    (fun (e, row, steps) ->
      let params = Hashtbl.create 1 in
      match (Codegen.compile_expr ~params e, Reference.compile_expr ~params e) with
      | Error a, Error b -> a = b
      | Ok f, Ok g ->
          List.for_all
            (fun step ->
              (match step with Some v -> Hashtbl.replace params "p" v | None -> Hashtbl.remove params "p");
              match ((try Some (f row) with Value.No_value -> None), g row) with
              | None, None -> true
              | Some a, Some b ->
                  (constructor a = constructor b && Value.compare a b = 0)
                  || QCheck.Test.fail_reportf "%s vs reference %s" (Value.to_string a) (Value.to_string b)
              | Some a, None -> QCheck.Test.fail_reportf "%s where the reference has no value" (Value.to_string a)
              | None, Some b -> QCheck.Test.fail_reportf "no value where the reference has %s" (Value.to_string b))
            steps
      | Ok _, Error e | Error e, Ok _ -> QCheck.Test.fail_reportf "only one side compiled: %s" e)

(* The predicate compiler compares Int/Ip fields with constants on
   unboxed ints and falls back to the boxed closure for any other value.
   Predicates built mostly of such comparisons (either side, under AND,
   OR and NOT) run over rows whose Int and Ip slots hold small values
   that meet the constants, or Null, Float or Str, which drive the
   fallback; "no value" reads as false. *)
let gen_field_pred =
  let open QCheck.Gen in
  let cmp =
    map4
      (fun op (i, ty) k flip ->
        let f = Expr_ir.Field (i, ty) and c = Expr_ir.Const k in
        Expr_ir.Binop (op, (if flip then c else f), (if flip then f else c), Ty.Bool))
      (oneofl Ast.[ Eq; Ne; Lt; Le; Gt; Ge ])
      (oneofl [ (0, Ty.Int); (1, Ty.Ip); (5, Ty.Int); (9, Ty.Int) ])
      (oneofl [ Value.Int (-1); Value.Int 0; Value.Int 1; Value.Int 2; Value.Ip 1; Value.Ip 2 ])
      bool
  in
  let rec pred depth =
    if depth = 0 then cmp
    else
      frequency
        [
          (3, cmp);
          (2, map3 (fun op a b -> Expr_ir.Binop (op, a, b, Ty.Bool)) (oneofl Ast.[ And; Or ])
                (pred (depth - 1)) (pred (depth - 1)));
          (1, map (fun a -> Expr_ir.Unop (Ast.Not, a)) (pred (depth - 1)));
        ]
  in
  sized_size (int_range 0 3) pred

let gen_small_row =
  let open QCheck.Gen in
  let slot =
    oneofl
      [ Value.Int (-1); Value.Int 0; Value.Int 1; Value.Int 2; Value.Ip 1; Value.Ip 2; Value.Null;
        Value.Float 0.0; Value.Float 2.5; Value.Str "a" ]
  in
  map2
    (fun row (a, b, c) ->
      let row = Array.copy row in
      row.(0) <- a;
      row.(1) <- b;
      row.(5) <- c;
      row)
    gen_row (triple slot slot slot)

let compiled_pred_matches_reference =
  qtest ~count:2000 "compiled predicates = option-returning reference"
    (QCheck.make
       ~print:(fun (e, row, _) ->
         Printf.sprintf "%s over [%s]" (Expr_ir.to_string e)
           (String.concat "; " (Array.to_list (Array.map Value.to_string row))))
       QCheck.Gen.(
         triple
           (frequency [ (1, gen_typed_expr); (3, gen_field_pred) ])
           (frequency [ (1, gen_row); (3, gen_small_row) ])
           gen_param_steps))
    (fun (e, row, steps) ->
      let params = Hashtbl.create 1 in
      match (Codegen.compile_pred ~params e, Reference.compile_expr ~params e) with
      | Error a, Error b -> a = b
      | Ok f, Ok g ->
          List.for_all
            (fun step ->
              (match step with Some v -> Hashtbl.replace params "p" v | None -> Hashtbl.remove params "p");
              let expected = match g row with Some v -> Value.is_truthy v | None -> false in
              f row = expected || QCheck.Test.fail_reportf "%b vs reference %b" (f row) expected)
            steps
      | Ok _, Error e | Error e, Ok _ -> QCheck.Test.fail_reportf "only one side compiled: %s" e)

let test_codegen_bad_handle_reported_at_install () =
  let catalog = fresh_catalog () in
  match
    Gsql.Compile.compile_query catalog ~name:"bad"
      "SELECT time FROM eth0.tcp WHERE str_match_regex(payload, '[unclosed') = TRUE"
  with
  | Error _ -> () (* rejecting at compile time is also acceptable *)
  | Ok c -> (
      (* the bad pattern must surface at install (handle instantiation) *)
      let mgr = Rts.Manager.create () in
      let binder =
        {
          Codegen.bind_source =
            (fun ~interface ~protocol ~nic:_ ->
              let schema =
                (Option.get (Gsql.Catalog.find_protocol catalog protocol)).Gsql.Catalog.schema
              in
              let name = interface ^ "." ^ protocol in
              match
                Rts.Manager.add_source mgr ~name ~schema
                  { Rts.Node.pull = (fun () -> None); clock = (fun () -> []) }
              with
              | Ok _ -> Ok name
              | Error e -> Error e);
        }
      in
      match Codegen.install mgr ~source_binder:binder c.Gsql.Compile.split with
      | Error msg -> check Alcotest.bool "error reported" true (String.length msg > 0)
      | Ok _ -> Alcotest.fail "bad regex pattern accepted")

(* ------------------------------ emitter --------------------------------- *)

let test_emit_c_select () =
  let c = compile_ok ~name:"em" "SELECT time, destport FROM eth0.tcp WHERE destport = 80" in
  let code = Gsql.Emit_c.emit c.Gsql.Compile.split in
  check Alcotest.bool "has struct" true (contains code "struct em_out");
  check Alcotest.bool "has process fn" true (contains code "em_process");
  check Alcotest.bool "has predicate" true (contains code "GS_DROP");
  check Alcotest.bool "mentions NIC" true (contains code "snap length")

let test_emit_c_agg () =
  let c = compile_ok ~name:"ag" "SELECT tb, count(*) as c FROM eth0.tcp GROUP BY time/1 as tb" in
  let code = Gsql.Emit_c.emit c.Gsql.Compile.split in
  check Alcotest.bool "direct-mapped table" true (contains code "direct-mapped table");
  check Alcotest.bool "epoch flush logic" true (contains code "flush_closed_groups")

let test_expr_print_reparse () =
  (* Ast.pp_expr emits fully parenthesized text: reparsing it must yield
     the same tree *)
  let sources =
    [
      "a + b * c - 2";
      "flags & 2 <> 0 and x = 1 or not y > 3";
      "f(a, b + 1) = true";
      "count(a) > 5";
      "x.y + $p";
      "10.0.0.1 = srcip";
      "-a % 3 << 2";
    ]
  in
  List.iter
    (fun src ->
      let e1 = Parser.parse_expr src in
      let e2 = Parser.parse_expr (Ast.expr_to_string e1) in
      check Alcotest.bool ("stable print/reparse: " ^ src) true (e1 = e2))
    sources

let test_emit_c_join_merge () =
  let catalog = fresh_catalog () in
  let program =
    {|
    DEFINE { query_name l; } SELECT time, srcport FROM eth0.tcp
    DEFINE { query_name r; } SELECT time, destport FROM eth1.tcp
    DEFINE { query_name jj; } SELECT a.time FROM l a, r b WHERE a.time = b.time
    DEFINE { query_name mm; } MERGE a.time : b.time FROM l a, r b
  |}
  in
  match Gsql.Compile.compile_program catalog program with
  | Error e -> Alcotest.fail e
  | Ok compiled ->
      let code =
        String.concat "\n"
          (List.map (fun c -> Gsql.Emit_c.emit c.Gsql.Compile.split) compiled)
      in
      check Alcotest.bool "join window mentioned" true (contains code "two-stream join");
      check Alcotest.bool "merge mentioned" true (contains code "order-preserving merge")

let test_explain_runs () =
  let c = compile_ok ~name:"ex" "SELECT time FROM eth0.tcp WHERE protocol = 6" in
  let text = Gsql.Compile.explain c in
  check Alcotest.bool "explain is substantial" true (String.length text > 200)

let () =
  Alcotest.run "gsql"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "ip literal" `Quick test_lexer_ip_literal;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "error positions" `Quick test_lexer_error_position;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper query" `Quick test_parse_paper_query;
          Alcotest.test_case "merge" `Quick test_parse_merge;
          Alcotest.test_case "group/having/sample" `Quick test_parse_group_by_having_sample;
          Alcotest.test_case "bitwise precedence" `Quick test_parse_precedence;
          Alcotest.test_case "arith precedence" `Quick test_parse_arith_precedence;
          Alcotest.test_case "protocol ddl" `Quick test_parse_protocol_ddl;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "protocol as field" `Quick test_parse_protocol_as_field;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "simple select" `Quick test_analyze_simple_select;
          Alcotest.test_case "unknown field" `Quick test_analyze_unknown_field;
          Alcotest.test_case "type errors" `Quick test_analyze_type_errors;
          Alcotest.test_case "unknown function" `Quick test_analyze_unknown_function;
          Alcotest.test_case "group-by epoch" `Quick test_analyze_group_by_epoch;
          Alcotest.test_case "non-key select rejected" `Quick test_analyze_select_item_must_be_key_or_agg;
          Alcotest.test_case "group key by expression" `Quick test_analyze_group_key_by_expression;
          Alcotest.test_case "agg dedup" `Quick test_analyze_agg_dedup;
          Alcotest.test_case "join window" `Quick test_analyze_join_window;
          Alcotest.test_case "join equality" `Quick test_analyze_join_equality_window;
          join_window_extraction_property;
          Alcotest.test_case "join output mode" `Quick test_analyze_join_output_mode;
          Alcotest.test_case "windowless join certifies unbounded" `Quick
            test_analyze_join_without_window_rejected;
          Alcotest.test_case "three-way join rejected" `Quick test_analyze_three_way_join_rejected;
          Alcotest.test_case "merge" `Quick test_analyze_merge;
          Alcotest.test_case "merge incompatible" `Quick test_analyze_merge_incompatible;
          Alcotest.test_case "merge unordered rejected" `Quick test_analyze_merge_unordered_column_rejected;
          Alcotest.test_case "param typing" `Quick test_analyze_param_typing;
          Alcotest.test_case "handle must be literal" `Quick test_analyze_handle_must_be_literal;
          Alcotest.test_case "nonrepeating through hash" `Quick test_analyze_nonrepeating_through_hash;
          Alcotest.test_case "in-group imputation" `Quick test_analyze_in_group_imputation;
          Alcotest.test_case "ddl protocol usable" `Quick test_analyze_ddl_protocol_usable;
        ] );
      ( "splitter",
        [
          Alcotest.test_case "simple select -> LFTA" `Quick test_split_simple_select_is_lfta;
          Alcotest.test_case "regex -> LFTA+HFTA" `Quick test_split_regex_forces_hfta;
          Alcotest.test_case "aggregation sub/super" `Quick test_split_aggregation;
          Alcotest.test_case "stream select -> HFTA" `Quick test_split_stream_select_is_hfta;
          Alcotest.test_case "NIC hints" `Quick test_split_nic_hints;
          Alcotest.test_case "payload snap" `Quick test_split_nic_payload_snap;
          Alcotest.test_case "lfta_bits property" `Quick test_split_lfta_bits_property;
          Alcotest.test_case "join feeders" `Quick test_split_join_feeders;
          Alcotest.test_case "filter weakening" `Quick test_lower_filter_weakening;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "arithmetic" `Quick test_codegen_arithmetic;
          Alcotest.test_case "division by zero" `Quick test_codegen_division_by_zero_discards;
          Alcotest.test_case "short circuit" `Quick test_codegen_short_circuit;
          Alcotest.test_case "bad handle at install" `Quick test_codegen_bad_handle_reported_at_install;
          codegen_matches_reference;
          compiled_pred_matches_reference;
        ] );
      ( "emitter",
        [
          Alcotest.test_case "select" `Quick test_emit_c_select;
          Alcotest.test_case "aggregation" `Quick test_emit_c_agg;
          Alcotest.test_case "explain" `Quick test_explain_runs;
          Alcotest.test_case "print/reparse" `Quick test_expr_print_reparse;
          Alcotest.test_case "emit join/merge" `Quick test_emit_c_join_merge;
        ] );
    ]
