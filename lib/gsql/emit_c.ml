module Rts = Gigascope_rts
module Schema = Rts.Schema
module Ty = Rts.Ty
module Value = Rts.Value

let c_ty = function
  | Ty.Bool -> "int"
  | Ty.Int -> "long long"
  | Ty.Float -> "double"
  | Ty.Str -> "struct gs_string"
  | Ty.Ip -> "unsigned int"
  | Ty.Sketch -> "struct gs_sketch"

let c_ident name =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then c else '_') name

let struct_of_schema buf ~name schema =
  Buffer.add_string buf (Printf.sprintf "struct %s {\n" (c_ident name));
  Array.iter
    (fun (f : Schema.field) ->
      Buffer.add_string buf (Printf.sprintf "  %s %s;\n" (c_ty f.Schema.ty) (c_ident f.Schema.name)))
    (Schema.fields schema);
  Buffer.add_string buf "};\n"

let c_value = function
  | Value.Null -> "GS_NULL"
  | Value.Bool b -> if b then "1" else "0"
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%g" f
  | Value.Str s -> Printf.sprintf "%S" s
  | Value.Ip ip -> Printf.sprintf "0x%08xU /* %s */" ip (Gigascope_packet.Ipaddr.to_string ip)
  (* sketch states have no literal syntax; they never appear as constants *)
  | Value.Sketch _ -> "GS_NULL /* sketch */"

let binop_c = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Band -> "&"
  | Ast.Bor -> "|"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.And -> "&&"
  | Ast.Or -> "||"

let rec c_expr ~in_schema e =
  match e with
  | Expr_ir.Const v -> c_value v
  | Expr_ir.Field (i, _) ->
      if i < Schema.arity in_schema then
        Printf.sprintf "in->%s" (c_ident (Schema.field_at in_schema i).Schema.name)
      else Printf.sprintf "in->f%d" i
  | Expr_ir.Param (p, _) -> Printf.sprintf "qparam_%s" (c_ident p)
  | Expr_ir.Unop (Ast.Not, a) -> Printf.sprintf "!(%s)" (c_expr ~in_schema a)
  | Expr_ir.Unop (Ast.Neg, a) -> Printf.sprintf "-(%s)" (c_expr ~in_schema a)
  | Expr_ir.Binop (op, a, b, _) ->
      Printf.sprintf "(%s %s %s)" (c_expr ~in_schema a) (binop_c op) (c_expr ~in_schema b)
  | Expr_ir.Call (f, args) ->
      Printf.sprintf "%s(%s)" (c_ident f.Rts.Func.name)
        (String.concat ", " (List.map (c_expr ~in_schema) args))

let emit_select buf ~node_name ~in_schema ~out_schema pred items =
  struct_of_schema buf ~name:(node_name ^ "_in") in_schema;
  struct_of_schema buf ~name:(node_name ^ "_out") out_schema;
  Buffer.add_string buf
    (Printf.sprintf
       "\nint %s_process(const struct %s_in *in, struct %s_out *out) {\n" (c_ident node_name)
       (c_ident node_name) (c_ident node_name));
  (match pred with
  | Some p -> Buffer.add_string buf (Printf.sprintf "  if (!%s) return GS_DROP;\n" (c_expr ~in_schema p))
  | None -> ());
  List.iteri
    (fun i (e, name) ->
      ignore i;
      Buffer.add_string buf (Printf.sprintf "  out->%s = %s;\n" (c_ident name) (c_expr ~in_schema e)))
    items;
  Buffer.add_string buf "  return GS_EMIT;\n}\n"

let emit_agg buf ~node_name ~lfta ~table_bits ~in_schema ~out_schema (a : Plan.agg_body) =
  struct_of_schema buf ~name:(node_name ^ "_in") in_schema;
  struct_of_schema buf ~name:(node_name ^ "_out") out_schema;
  Buffer.add_string buf (Printf.sprintf "\nstruct %s_group {\n" (c_ident node_name));
  List.iteri
    (fun i (k, name) ->
      ignore i;
      Buffer.add_string buf (Printf.sprintf "  %s key_%s;\n" (c_ty (Expr_ir.ty k)) (c_ident name)))
    a.Plan.keys;
  List.iter
    (fun (c : Plan.agg_call) ->
      Buffer.add_string buf (Printf.sprintf "  gs_acc_t acc_%s;\n" (c_ident c.Plan.agg_name)))
    a.Plan.aggs;
  Buffer.add_string buf "};\n";
  if lfta then
    Buffer.add_string buf
      (Printf.sprintf
         "\n/* direct-mapped table: %d slots; a collision ejects the old group\n   as a partial aggregate for the HFTA to combine */\nstatic struct %s_group table[1 << %d];\n"
         (1 lsl table_bits) (c_ident node_name) table_bits)
  else
    Buffer.add_string buf
      (Printf.sprintf "\nstatic gs_hashtable_t groups; /* closed on epoch advance */\n");
  Buffer.add_string buf
    (Printf.sprintf "\nint %s_process(const struct %s_in *in) {\n" (c_ident node_name)
       (c_ident node_name));
  (match a.Plan.agg_pred with
  | Some p -> Buffer.add_string buf (Printf.sprintf "  if (!%s) return GS_DROP;\n" (c_expr ~in_schema p))
  | None -> ());
  List.iteri
    (fun i (k, name) ->
      ignore i;
      Buffer.add_string buf
        (Printf.sprintf "  gs_key_%s = %s;\n" (c_ident name) (c_expr ~in_schema k)))
    a.Plan.keys;
  (match a.Plan.epoch with
  | Some ek ->
      let _, name = List.nth a.Plan.keys ek in
      Buffer.add_string buf
        (Printf.sprintf
           "  if (gs_key_%s > epoch_high_water) {\n    flush_closed_groups();  /* ordered group key: all passed groups are closed */\n    epoch_high_water = gs_key_%s;\n  }\n"
           (c_ident name) (c_ident name))
  | None -> ());
  List.iter
    (fun (c : Plan.agg_call) ->
      let arg = match c.Plan.arg with Some e -> c_expr ~in_schema e | None -> "1" in
      Buffer.add_string buf
        (Printf.sprintf "  gs_%s_step(&g->acc_%s, %s);\n"
           (Rts.Agg_fn.kind_to_string c.Plan.kind) (c_ident c.Plan.agg_name) arg))
    a.Plan.aggs;
  Buffer.add_string buf "  return GS_OK;\n}\n"

let emit_node (phys : Split.phys_node) =
  let buf = Buffer.create 1024 in
  let kind = match phys.Split.pkind with Rts.Node.Lfta -> "LFTA" | _ -> "HFTA" in
  Buffer.add_string buf
    (Printf.sprintf "/* ---- %s %s ---- */\n" kind phys.Split.pname);
  (match phys.Split.pnic with
  | Some { Split.nic_filter; snap_len; _ } ->
      Buffer.add_string buf (Printf.sprintf "/* NIC: snap length %d bytes" snap_len);
      (match nic_filter with
      | Some f ->
          Buffer.add_string buf
            (Format.asprintf ";@ bpf filter: %a, %d instructions" Gigascope_bpf.Filter.pp f
               (Array.length (Gigascope_bpf.Filter.compile f)))
      | None -> Buffer.add_string buf "; no bpf filter (predicate not lowerable)");
      Buffer.add_string buf " */\n"
  | None -> ());
  (match phys.Split.pbody with
  | Plan.Select { sel_input; sel_pred; sel_items; _ } ->
      emit_select buf ~node_name:phys.Split.pname
        ~in_schema:(Plan.input_schema sel_input) ~out_schema:phys.Split.pschema sel_pred
        sel_items
  | Plan.Agg a ->
      emit_agg buf ~node_name:phys.Split.pname
        ~lfta:(phys.Split.pkind = Rts.Node.Lfta)
        ~table_bits:(max phys.Split.ptable_bits 1)
        ~in_schema:(Plan.input_schema a.Plan.agg_input) ~out_schema:phys.Split.pschema a
  | Plan.Join j ->
      struct_of_schema buf ~name:(phys.Split.pname ^ "_out") phys.Split.pschema;
      Buffer.add_string buf
        (Printf.sprintf
           "\n/* two-stream join, window [%g, %g] on ordered attrs (left #%d, right #%d);\n   buffered tuples are purged as the opposite bound advances */\n"
           j.Plan.win_lo j.Plan.win_hi j.Plan.left_ord j.Plan.right_ord)
  | Plan.Merge m ->
      Buffer.add_string buf
        (Printf.sprintf
           "/* order-preserving merge of %d inputs on attribute #%d;\n   blocked inputs are advanced by heartbeat punctuation */\n"
           (List.length m.Plan.merge_inputs) m.Plan.merge_field));
  Buffer.contents buf

let emit (split : Split.t) =
  String.concat "\n" (List.map emit_node split.Split.phys)
