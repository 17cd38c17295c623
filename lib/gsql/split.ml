module Rts = Gigascope_rts
module Bpf = Gigascope_bpf
module Schema = Rts.Schema
module Ty = Rts.Ty
module Value = Rts.Value
module Order_prop = Rts.Order_prop

type nic_hint = {
  nic_filter : Bpf.Filter.t option;
  snap_len : int;
  fields_needed : int list;
  payload_guard : Expr_ir.t list option;
}

type shard_tag = {
  sshard : int;
  sseq : (int * (unit -> int)) option;
}

type phys_node = {
  pname : string;
  pkind : Rts.Node.kind;
  pbody : Plan.body;
  pschema : Schema.t;
  pnic : nic_hint option;
  ptable_bits : int;
  pshard : shard_tag option;
}

type t = { plan : Plan.t; phys : phys_node list }

(* ---------------- predicate lowering to the filter machine ------------- *)

let cmp_of_binop = function
  | Ast.Eq -> Some Bpf.Filter.Eq
  | Ast.Ne -> Some Bpf.Filter.Ne
  | Ast.Lt -> Some Bpf.Filter.Lt
  | Ast.Le -> Some Bpf.Filter.Le
  | Ast.Gt -> Some Bpf.Filter.Gt
  | Ast.Ge -> Some Bpf.Filter.Ge
  | _ -> None

let const_int = function
  | Expr_ir.Const (Value.Int i) -> Some i
  | Expr_ir.Const (Value.Ip i) -> Some i
  | Expr_ir.Const (Value.Bool b) -> Some (if b then 1 else 0)
  | _ -> None

let flip_cmp = function
  | Bpf.Filter.Lt -> Bpf.Filter.Gt
  | Bpf.Filter.Le -> Bpf.Filter.Ge
  | Bpf.Filter.Gt -> Bpf.Filter.Lt
  | Bpf.Filter.Ge -> Bpf.Filter.Le
  | (Bpf.Filter.Eq | Bpf.Filter.Ne) as c -> c

(* Lower a single expression completely, or fail. *)
let rec lower_exact ~bpf_of_field e =
  match e with
  | Expr_ir.Const (Value.Bool true) -> Some Bpf.Filter.True
  | Expr_ir.Const (Value.Bool false) -> Some Bpf.Filter.False
  | Expr_ir.Unop (Ast.Not, a) ->
      Option.map (fun f -> Bpf.Filter.Not f) (lower_exact ~bpf_of_field a)
  | Expr_ir.Binop (Ast.And, a, b, _) -> (
      match (lower_exact ~bpf_of_field a, lower_exact ~bpf_of_field b) with
      | Some fa, Some fb -> Some (Bpf.Filter.And (fa, fb))
      | _ -> None)
  | Expr_ir.Binop (Ast.Or, a, b, _) -> (
      match (lower_exact ~bpf_of_field a, lower_exact ~bpf_of_field b) with
      | Some fa, Some fb -> Some (Bpf.Filter.Or (fa, fb))
      | _ -> None)
  | Expr_ir.Binop (op, Expr_ir.Field (i, _), rhs, _) -> (
      match (cmp_of_binop op, bpf_of_field i, const_int rhs) with
      | Some cmp, Some field, Some k -> Some (Bpf.Filter.Cmp (field, cmp, k))
      | _ -> None)
  | Expr_ir.Binop (op, lhs, Expr_ir.Field (i, _), _) -> (
      match (cmp_of_binop op, bpf_of_field i, const_int lhs) with
      | Some cmp, Some field, Some k -> Some (Bpf.Filter.Cmp (field, flip_cmp cmp, k))
      | _ -> None)
  | Expr_ir.Binop
      (Ast.Ne, Expr_ir.Binop (Ast.Band, Expr_ir.Field (i, _), mask, _), rhs, _)
    when const_int rhs = Some 0 -> (
      match (bpf_of_field i, const_int mask) with
      | Some field, Some m -> Some (Bpf.Filter.Flag_set (field, m))
      | _ -> None)
  | Expr_ir.Binop
      (Ast.Eq, Expr_ir.Binop (Ast.Band, Expr_ir.Field (i, _), mask, _), rhs, _)
    when const_int rhs = Some 0 -> (
      match (bpf_of_field i, const_int mask) with
      | Some field, Some m -> Some (Bpf.Filter.Not (Bpf.Filter.Flag_set (field, m)))
      | _ -> None)
  | _ -> None

let lower_filter ~bpf_of_field pred =
  (* Lower the lowerable conjuncts; dropping one weakens the filter, which
     is safe because the LFTA re-evaluates the full predicate. *)
  let lowered = List.filter_map (lower_exact ~bpf_of_field) (Expr_ir.conjuncts pred) in
  match lowered with
  | [] -> None
  | first :: rest ->
      Some (List.fold_left (fun acc f -> Bpf.Filter.And (acc, f)) first rest)

(* ---------------- helpers ---------------------------------------------- *)

let partition_conjuncts pred =
  match pred with
  | None -> ([], [])
  | Some p -> List.partition Expr_ir.is_lfta_safe (Expr_ir.conjuncts p)

let items_lfta_safe items = List.for_all (fun (e, _) -> Expr_ir.is_lfta_safe e) items

(* Build the projection LFTA that forwards the given input fields. *)
let projection_items schema field_indices =
  List.map
    (fun i ->
      let f = Schema.field_at schema i in
      (Expr_ir.Field (i, f.Schema.ty), f.Schema.name))
    field_indices

let projection_schema schema field_indices =
  Schema.make
    (List.map (fun i -> Schema.field_at schema i) field_indices)

let mapping_of field_indices =
  let tbl = Hashtbl.create 8 in
  List.iteri (fun pos i -> Hashtbl.replace tbl i pos) field_indices;
  fun i ->
    match Hashtbl.find_opt tbl i with
    | Some pos -> pos
    | None -> invalid_arg (Printf.sprintf "split: field %d not forwarded by LFTA" i)

let rec has_call = function
  | Expr_ir.Call _ -> true
  | Expr_ir.Const _ | Expr_ir.Field _ | Expr_ir.Param _ -> false
  | Expr_ir.Unop (_, a) -> has_call a
  | Expr_ir.Binop (_, a, b, _) -> has_call a || has_call b

(* The payload guard keeps the conjuncts the source can evaluate on its
   own, before the payload is copied: no payload field (not there yet),
   no $param (set_param may change it after the guard is compiled) and
   no Call (a shard replica's owner conjunct is a Func.pure that counts
   its evaluations). Each is implied by the LFTA's predicate. *)
let nic_hint_for catalog ~protocol ~schema ~pred ~fields_needed =
  match Catalog.find_protocol catalog protocol with
  | None -> { nic_filter = None; snap_len = 65535; fields_needed; payload_guard = None }
  | Some proto ->
      let bpf_of_field i =
        let name = (Schema.field_at schema i).Schema.name in
        List.assoc_opt (String.lowercase_ascii name)
          (List.map (fun (n, f) -> (String.lowercase_ascii n, f)) proto.Catalog.bpf_fields)
      in
      let nic_filter = Option.bind pred (lower_filter ~bpf_of_field) in
      let is_payload i =
        let name = String.lowercase_ascii (Schema.field_at schema i).Schema.name in
        List.exists (fun p -> String.lowercase_ascii p = name) proto.Catalog.payload_fields
      in
      let needs_payload = List.exists is_payload fields_needed in
      let payload_guard =
        if not needs_payload then None
        else
          let conjs = match pred with None -> [] | Some p -> Expr_ir.conjuncts p in
          Some
            (List.filter
               (fun c ->
                 (not (List.exists is_payload (Expr_ir.fields_used c)))
                 && Expr_ir.params_used c = []
                 && not (has_call c))
               conjs)
      in
      (* 134 covers Ethernet + maximal IP + maximal TCP headers. *)
      { nic_filter; snap_len = (if needs_payload then 65535 else 134); fields_needed; payload_guard }

let fields_of_items items =
  List.sort_uniq compare (List.concat_map (fun (e, _) -> Expr_ir.fields_used e) items)

let fields_of_pred = function
  | None -> []
  | Some p -> Expr_ir.fields_used p

(* ---------------- per-shape splitting ----------------------------------- *)

let split_select catalog ~qname ~interface ~protocol ~schema ~pred ~items ~sample =
  let cheap, expensive = partition_conjuncts pred in
  let input = Plan.From_protocol { interface; protocol; schema } in
  if expensive = [] && items_lfta_safe items && sample = None then
    (* the whole query runs as an LFTA *)
    let fields_needed =
      List.sort_uniq compare (fields_of_items items @ fields_of_pred pred)
    in
    let out_schema_items = items in
    let props = List.map (fun (e, _) -> Order_infer.of_select_item schema e) items in
    let pschema =
      Schema.make
        (List.map2
           (fun (e, name) order -> { Schema.name; ty = Expr_ir.ty e; order })
           out_schema_items props)
    in
    [
      {
        pname = qname;
        pkind = Rts.Node.Lfta;
        pbody =
          Plan.Select
            { sel_input = input; sel_pred = Expr_ir.conjoin cheap; sel_items = items; sample = None };
        pschema;
        pnic = Some (nic_hint_for catalog ~protocol ~schema ~pred:(Expr_ir.conjoin cheap) ~fields_needed);
        ptable_bits = 0;
        pshard = None;
      };
    ]
  else begin
    (* LFTA: cheap filter + projection of every field the HFTA needs *)
    let hfta_fields =
      List.sort_uniq compare
        (List.concat_map Expr_ir.fields_used expensive @ fields_of_items items)
    in
    let lfta_name = "_lfta_" ^ qname in
    let lfta_schema = projection_schema schema hfta_fields in
    let lfta =
      {
        pname = lfta_name;
        pkind = Rts.Node.Lfta;
        pbody =
          Plan.Select
            {
              sel_input = input;
              sel_pred = Expr_ir.conjoin cheap;
              sel_items = projection_items schema hfta_fields;
              sample = None;
            };
        pschema = lfta_schema;
        pnic =
          Some
            (nic_hint_for catalog ~protocol ~schema ~pred:(Expr_ir.conjoin cheap)
               ~fields_needed:
                 (List.sort_uniq compare (hfta_fields @ fields_of_pred (Expr_ir.conjoin cheap))));
        ptable_bits = 0;
        pshard = None;
      }
    in
    let mapping = mapping_of hfta_fields in
    let rebased_pred =
      Expr_ir.conjoin (List.map (Expr_ir.rebase_fields ~mapping) expensive)
    in
    let rebased_items =
      List.map (fun (e, name) -> (Expr_ir.rebase_fields e ~mapping, name)) items
    in
    let props =
      List.map (fun (e, _) -> Order_infer.of_select_item lfta_schema e) rebased_items
    in
    let hschema =
      Schema.make
        (List.map2
           (fun (e, name) order -> { Schema.name; ty = Expr_ir.ty e; order })
           rebased_items props)
    in
    let hfta =
      {
        pname = qname;
        pkind = Rts.Node.Hfta;
        pbody =
          Plan.Select
            {
              sel_input = Plan.From_stream { stream = lfta_name; schema = lfta_schema };
              sel_pred = rebased_pred;
              sel_items = rebased_items;
              sample;
            };
        pschema = hschema;
        pnic = None;
        ptable_bits = 0;
        pshard = None;
      }
    in
    [lfta; hfta]
  end

(* Split an aggregation over a protocol into LFTA sub-agg + HFTA super-agg. *)
let split_agg catalog ~qname ~table_bits ~interface ~protocol ~schema (a : Plan.agg_body)
    ~out_schema =
  let cheap, expensive = partition_conjuncts a.Plan.agg_pred in
  let input = Plan.From_protocol { interface; protocol; schema } in
  let keys_safe = List.for_all (fun (k, _) -> Expr_ir.is_lfta_safe k) a.Plan.keys in
  let args_safe =
    List.for_all
      (fun (c : Plan.agg_call) ->
        match c.Plan.arg with None -> true | Some e -> Expr_ir.is_lfta_safe e)
      a.Plan.aggs
  in
  if expensive = [] && keys_safe && args_safe then begin
    (* sub-aggregate in the LFTA, super-aggregate in the HFTA *)
    let lfta_name = "_lfta_" ^ qname in
    let n_keys = List.length a.Plan.keys in
    (* expand aggs into sub-aggregate calls; remember each original agg's
       slot list *)
    let sub_calls = ref [] and slots = ref [] in
    List.iter
      (fun (c : Plan.agg_call) ->
        let kinds = Rts.Agg_fn.sub_kinds c.Plan.kind in
        let these =
          List.mapi
            (fun j kind ->
              let idx = List.length !sub_calls + j in
              ignore idx;
              {
                Plan.kind;
                arg = (match kind with Rts.Agg_fn.Count -> None | _ -> c.Plan.arg);
                agg_name = Printf.sprintf "%s_p%d" c.Plan.agg_name j;
              })
            kinds
        in
        let base = List.length !sub_calls in
        slots := !slots @ [List.mapi (fun j _ -> base + j) these];
        sub_calls := !sub_calls @ these)
      a.Plan.aggs;
    let sub_calls = !sub_calls and slots = !slots in
    (* LFTA output schema: keys then partials *)
    let epoch_prop =
      let dir = a.Plan.epoch_dir in
      if a.Plan.epoch_band = 0.0 then Order_prop.Monotone dir
      else Order_prop.Banded (dir, a.Plan.epoch_band)
    in
    let lfta_schema =
      Schema.make
        (List.mapi
           (fun i (k, name) ->
             {
               Schema.name;
               ty = Expr_ir.ty k;
               order = (if a.Plan.epoch = Some i then epoch_prop else Order_prop.Unordered);
             })
           a.Plan.keys
        @ List.map
            (fun (c : Plan.agg_call) ->
              (* a sketch partial's column type is Ty.Sketch: the state
                 itself rides the stream, not an estimate *)
              let ty =
                Rts.Agg_fn.result_ty c.Plan.kind ~arg_ty:(Option.map Expr_ir.ty c.Plan.arg)
              in
              { Schema.name = c.Plan.agg_name; ty; order = Order_prop.Unordered })
            sub_calls)
    in
    let lfta_items =
      List.mapi (fun i (k, name) -> (Expr_ir.Field (i, Expr_ir.ty k), name)) a.Plan.keys
      @ List.mapi
          (fun j (c : Plan.agg_call) ->
            let f = Schema.field_at lfta_schema (n_keys + j) in
            (Expr_ir.Field (n_keys + j, f.Schema.ty), c.Plan.agg_name))
          sub_calls
    in
    let lfta =
      {
        pname = lfta_name;
        pkind = Rts.Node.Lfta;
        pbody =
          Plan.Agg
            {
              a with
              Plan.agg_input = input;
              agg_pred = Expr_ir.conjoin cheap;
              aggs = sub_calls;
              agg_items = lfta_items;
              having = None;
            };
        pschema = lfta_schema;
        pnic =
          Some
            (nic_hint_for catalog ~protocol ~schema ~pred:(Expr_ir.conjoin cheap)
               ~fields_needed:
                 (List.sort_uniq compare
                    (fields_of_pred (Expr_ir.conjoin cheap)
                    @ List.concat_map (fun (k, _) -> Expr_ir.fields_used k) a.Plan.keys
                    @ List.concat_map
                        (fun (c : Plan.agg_call) ->
                          match c.Plan.arg with Some e -> Expr_ir.fields_used e | None -> [])
                        a.Plan.aggs)));
        ptable_bits = table_bits;
        pshard = None;
      }
    in
    (* HFTA super-aggregation over the LFTA's output *)
    let super_keys =
      List.mapi
        (fun i (k, name) -> (Expr_ir.Field (i, Expr_ir.ty k), name))
        a.Plan.keys
    in
    let super_calls = ref [] and super_slots = ref [] in
    List.iteri
      (fun orig_idx (c : Plan.agg_call) ->
        let sub_slot_list = List.nth slots orig_idx in
        let kinds = Rts.Agg_fn.super_kind c.Plan.kind in
        let base = List.length !super_calls in
        let these =
          List.map2
            (fun kind sub_slot ->
              let f = Schema.field_at lfta_schema (n_keys + sub_slot) in
              {
                Plan.kind;
                arg = Some (Expr_ir.Field (n_keys + sub_slot, f.Schema.ty));
                agg_name = f.Schema.name ^ "_s";
              })
            kinds sub_slot_list
        in
        super_slots := !super_slots @ [List.mapi (fun j _ -> base + j) these];
        super_calls := !super_calls @ these)
      a.Plan.aggs;
    let super_calls = !super_calls and super_slots = !super_slots in
    (* rewrite the original items/having: key refs unchanged; agg ref j ->
       super slot (or fdiv(sum, count) for avg) *)
    let fdiv =
      match Rts.Func.find (Catalog.functions catalog) "fdiv" with
      | Some f -> f
      | None -> invalid_arg "split: fdiv builtin missing"
    in
    let subst i =
      if i < n_keys then
        Expr_ir.Field (i, Expr_ir.ty (fst (List.nth a.Plan.keys i)))
      else begin
        let orig_idx = i - n_keys in
        let c = List.nth a.Plan.aggs orig_idx in
        let sslots = List.nth super_slots orig_idx in
        match (c.Plan.kind, sslots) with
        | Rts.Agg_fn.Avg, [sum_slot; cnt_slot] ->
            Expr_ir.Call
              ( fdiv,
                [
                  Expr_ir.Field (n_keys + sum_slot, Ty.Float);
                  Expr_ir.Field (n_keys + cnt_slot, Ty.Float);
                ] )
        | _, [slot] ->
            let ty =
              Rts.Agg_fn.result_ty c.Plan.kind ~arg_ty:(Option.map Expr_ir.ty c.Plan.arg)
            in
            Expr_ir.Field (n_keys + slot, ty)
        | _ -> invalid_arg "split: unexpected super-aggregate arity"
      end
    in
    let super_items =
      List.map (fun (e, name) -> (Expr_ir.subst_fields e ~subst, name)) a.Plan.agg_items
    in
    let super_having = Option.map (Expr_ir.subst_fields ~subst) a.Plan.having in
    let hfta =
      {
        pname = qname;
        pkind = Rts.Node.Hfta;
        pbody =
          Plan.Agg
            {
              agg_input = Plan.From_stream { stream = lfta_name; schema = lfta_schema };
              agg_pred = None;
              keys = super_keys;
              epoch = a.Plan.epoch;
              epoch_dir = a.Plan.epoch_dir;
              (* LFTA evictions can straggle within the table's epoch; the
                 input to the HFTA keeps the source band. *)
              epoch_band = a.Plan.epoch_band;
              epoch_in_field =
                (match a.Plan.epoch with Some i -> Some i | None -> None);
              aggs = super_calls;
              agg_items = super_items;
              having = super_having;
            };
        pschema = out_schema;
        pnic = None;
        ptable_bits = 0;
        pshard = None;
      }
    in
    [lfta; hfta]
  end
  else begin
    (* Expensive pieces before aggregation: LFTA only filters/projects. *)
    let needed =
      List.sort_uniq compare
        (List.concat_map Expr_ir.fields_used expensive
        @ List.concat_map (fun (k, _) -> Expr_ir.fields_used k) a.Plan.keys
        @ List.concat_map
            (fun (c : Plan.agg_call) ->
              match c.Plan.arg with Some e -> Expr_ir.fields_used e | None -> [])
            a.Plan.aggs)
    in
    let lfta_name = "_lfta_" ^ qname in
    let lfta_schema = projection_schema schema needed in
    let lfta =
      {
        pname = lfta_name;
        pkind = Rts.Node.Lfta;
        pbody =
          Plan.Select
            {
              sel_input = input;
              sel_pred = Expr_ir.conjoin cheap;
              sel_items = projection_items schema needed;
              sample = None;
            };
        pschema = lfta_schema;
        pnic =
          Some
            (nic_hint_for catalog ~protocol ~schema ~pred:(Expr_ir.conjoin cheap)
               ~fields_needed:(List.sort_uniq compare (needed @ fields_of_pred (Expr_ir.conjoin cheap))));
        ptable_bits = 0;
        pshard = None;
      }
    in
    let mapping = mapping_of needed in
    let rebase = Expr_ir.rebase_fields ~mapping in
    let hfta =
      {
        pname = qname;
        pkind = Rts.Node.Hfta;
        pbody =
          Plan.Agg
            {
              a with
              Plan.agg_input = Plan.From_stream { stream = lfta_name; schema = lfta_schema };
              agg_pred = Expr_ir.conjoin (List.map rebase expensive);
              keys = List.map (fun (k, n) -> (rebase k, n)) a.Plan.keys;
              epoch_in_field = Option.map mapping a.Plan.epoch_in_field;
              aggs =
                List.map
                  (fun (c : Plan.agg_call) -> { c with Plan.arg = Option.map rebase c.Plan.arg })
                  a.Plan.aggs;
            };
        pschema = out_schema;
        pnic = None;
        ptable_bits = 0;
        pshard = None;
      }
    in
    [lfta; hfta]
  end

(* For join/merge over protocols: a projection LFTA per protocol input. *)
let protocol_feeder catalog ~name ~interface ~protocol ~schema ~fields ~pred =
  let lfta_schema = projection_schema schema fields in
  {
    pname = name;
    pkind = Rts.Node.Lfta;
    pbody =
      Plan.Select
        {
          sel_input = Plan.From_protocol { interface; protocol; schema };
          sel_pred = pred;
          sel_items = projection_items schema fields;
          sample = None;
        };
    pschema = lfta_schema;
    pnic =
      Some
        (nic_hint_for catalog ~protocol ~schema ~pred
           ~fields_needed:(List.sort_uniq compare (fields @ fields_of_pred pred)));
    ptable_bits = 0;
    pshard = None;
  }

let split catalog ?(lfta_table_bits = 12) (plan : Plan.t) =
  let qname = plan.Plan.name in
  match plan.Plan.body with
  | Plan.Select { sel_input = Plan.From_protocol { interface; protocol; schema }; sel_pred; sel_items; sample }
    ->
      Ok
        {
          plan;
          phys = split_select catalog ~qname ~interface ~protocol ~schema ~pred:sel_pred ~items:sel_items ~sample;
        }
  | Plan.Select _ ->
      (* stream input: a single HFTA *)
      Ok
        {
          plan;
          phys =
            [
              {
                pname = qname;
                pkind = Rts.Node.Hfta;
                pbody = plan.Plan.body;
                pschema = plan.Plan.out_schema;
                pnic = None;
                ptable_bits = 0;
                pshard = None;
              };
            ];
        }
  | Plan.Agg ({ agg_input = Plan.From_protocol { interface; protocol; schema }; _ } as a) ->
      Ok
        {
          plan;
          phys =
            split_agg catalog ~qname ~table_bits:lfta_table_bits ~interface ~protocol ~schema a
              ~out_schema:plan.Plan.out_schema;
        }
  | Plan.Agg _ ->
      Ok
        {
          plan;
          phys =
            [
              {
                pname = qname;
                pkind = Rts.Node.Hfta;
                pbody = plan.Plan.body;
                pschema = plan.Plan.out_schema;
                pnic = None;
                ptable_bits = 0;
                pshard = None;
              };
            ];
        }
  | Plan.Join j -> begin
      (* For each protocol side, insert a projection LFTA that forwards the
         fields the join touches and applies the conjuncts that reference
         only that side. *)
      let left_schema = Plan.input_schema j.Plan.left in
      let n_left = Schema.arity left_schema in
      let all_fields =
        List.sort_uniq compare
          (fields_of_items j.Plan.join_items
          @ fields_of_pred j.Plan.join_pred
          @ [j.Plan.left_ord; n_left + j.Plan.right_ord])
      in
      let left_fields = List.filter (fun i -> i < n_left) all_fields in
      let right_fields =
        List.filter_map (fun i -> if i >= n_left then Some (i - n_left) else None) all_fields
      in
      let conjs = match j.Plan.join_pred with Some p -> Expr_ir.conjuncts p | None -> [] in
      let side_pred ~left =
        let eligible c =
          Expr_ir.is_lfta_safe c
          && List.for_all
               (fun i -> if left then i < n_left else i >= n_left)
               (Expr_ir.fields_used c)
          && Expr_ir.fields_used c <> []
        in
        let mine = List.filter eligible conjs in
        let mapping i = if left then i else i - n_left in
        Expr_ir.conjoin (List.map (Expr_ir.rebase_fields ~mapping) mine)
      in
      let make_side input ~left ~fields ~suffix =
        match input with
        | Plan.From_protocol { interface; protocol; schema } ->
            let name = Printf.sprintf "_lfta_%s_%s" qname suffix in
            let node =
              protocol_feeder catalog ~name ~interface ~protocol ~schema ~fields
                ~pred:(side_pred ~left)
            in
            (Plan.From_stream { stream = name; schema = node.pschema }, Some node, mapping_of fields)
        | Plan.From_stream _ -> (input, None, fun i -> i)
      in
      let left_input, left_node, left_map = make_side j.Plan.left ~left:true ~fields:left_fields ~suffix:"l" in
      let right_input, right_node, right_map =
        make_side j.Plan.right ~left:false ~fields:right_fields ~suffix:"r"
      in
      let new_n_left = Schema.arity (Plan.input_schema left_input) in
      let mapping i =
        if i < n_left then left_map i else new_n_left + right_map (i - n_left)
      in
      let rebase = Expr_ir.rebase_fields ~mapping in
      let hfta =
        {
          pname = qname;
          pkind = Rts.Node.Hfta;
          pbody =
            Plan.Join
              {
                j with
                Plan.left = left_input;
                right = right_input;
                left_ord = left_map j.Plan.left_ord;
                right_ord = right_map j.Plan.right_ord;
                join_pred = Option.map rebase j.Plan.join_pred;
                join_items = List.map (fun (e, n) -> (rebase e, n)) j.Plan.join_items;
              };
          pschema = plan.Plan.out_schema;
          pnic = None;
          ptable_bits = 0;
          pshard = None;
        }
      in
      Ok { plan; phys = List.filter_map Fun.id [left_node; right_node] @ [hfta] }
    end
  | Plan.Merge m -> begin
      (* Protocol inputs get identity-projection LFTAs. *)
      let feeders_and_inputs =
        List.mapi
          (fun idx input ->
            match input with
            | Plan.From_protocol { interface; protocol; schema } ->
                let fields = List.init (Schema.arity schema) Fun.id in
                let name = Printf.sprintf "_lfta_%s_%d" qname idx in
                let node =
                  protocol_feeder catalog ~name ~interface ~protocol ~schema ~fields ~pred:None
                in
                (Some node, Plan.From_stream { stream = name; schema = node.pschema })
            | Plan.From_stream _ -> (None, input))
          m.Plan.merge_inputs
      in
      let feeders = List.filter_map fst feeders_and_inputs in
      let inputs = List.map snd feeders_and_inputs in
      let hfta =
        {
          pname = qname;
          pkind = Rts.Node.Hfta;
          pbody = Plan.Merge { m with Plan.merge_inputs = inputs };
          pschema = plan.Plan.out_schema;
          pnic = None;
          ptable_bits = 0;
          pshard = None;
        }
      in
      Ok { plan; phys = feeders @ [hfta] }
    end

(* ---------------- sharded data-parallel execution ----------------------- *)

module Metrics = Gigascope_obs.Metrics

type shard_mode = Hash_key | Round_robin

type shard_info = {
  squery : string;
  smode : shard_mode;
  sshards : int;
  stuples : Metrics.Counter.t array;
  sreunify : string;
}

let replica_name qname i = Printf.sprintf "_shard_%s_%d" qname i

(* Every replica sees the same broadcast input stream and evaluates the
   same cheap conjuncts, so the private counters inside the ownership
   closures advance in lockstep across replicas and exactly one replica
   accepts each tuple. The ownership conjunct must come LAST: And
   short-circuits left-to-right, which is what keeps the counters equal
   on every replica regardless of which conjunct rejects a tuple. *)
let with_owner pred owner =
  let conjs = match pred with None -> [] | Some p -> Expr_ir.conjuncts p in
  match Expr_ir.conjoin (conjs @ [ owner ]) with Some p -> p | None -> owner

let round_robin_owner ~shards ~me ~accepted =
  let ctr = ref 0 in
  let f =
    Rts.Func.pure
      ~name:(Printf.sprintf "_shard_rr_%d_of_%d" me shards)
      ~arg_tys:[] ~ret_ty:Ty.Bool
      (fun _ ->
        let s = !ctr in
        incr ctr;
        let mine = s mod shards = me in
        if mine then Metrics.Counter.incr accepted;
        Some (Value.Bool mine))
  in
  (Expr_ir.Call (f, []), ctr)

let hash_owner ~shards ~me ~accepted key_exprs =
  let f =
    Rts.Func.pure
      ~name:(Printf.sprintf "_shard_hash_%d_of_%d" me shards)
      ~arg_tys:(List.map Expr_ir.ty key_exprs)
      ~ret_ty:Ty.Bool
      (fun vals ->
        let mine = Value.hash_array vals land max_int mod shards = me in
        if mine then Metrics.Counter.incr accepted;
        Some (Value.Bool mine))
  in
  Expr_ir.Call (f, key_exprs)

(* A pure-LFTA selection: N round-robin replicas, each appending a private
   "__seq" column carrying the tuple's global arrival index among the
   accepted tuples. A reunification merge ordered on __seq restores the
   exact single-shard output order, and an identity select registered
   under the original query name strips the column again. *)
let shard_pure_select ~shards t (node : phys_node) ~sel_input ~sel_pred ~sel_items =
  let qname = node.pname in
  let n_items = List.length sel_items in
  let stuples = Array.init shards (fun _ -> Metrics.Counter.make ()) in
  let replicas =
    List.init shards (fun i ->
        let owner, ctr = round_robin_owner ~shards ~me:i ~accepted:stuples.(i) in
        let seq =
          (* reads the round-robin counter the owner conjunct just
             advanced for this same tuple: [!ctr - 1] is the tuple's
             global index among cheap-passing tuples *)
          Rts.Func.pure ~name:"_shard_seq" ~arg_tys:[] ~ret_ty:Ty.Int (fun _ ->
              Some (Value.Int (!ctr - 1)))
        in
        {
          node with
          pname = replica_name qname i;
          pbody =
            Plan.Select
              {
                sel_input;
                sel_pred = Some (with_owner sel_pred owner);
                sel_items = sel_items @ [ (Expr_ir.Call (seq, []), "__seq") ];
                sample = None;
              };
          pschema =
            Schema.make
              (Array.to_list (Schema.fields node.pschema)
              @ [
                  {
                    Schema.name = "__seq";
                    ty = Ty.Int;
                    order = Order_prop.Monotone Order_prop.Asc;
                  };
                ]);
          pshard = Some { sshard = i; sseq = Some (n_items, (fun () -> !ctr)) };
        })
  in
  let rschema = (List.hd replicas).pschema in
  let merge_name = "_shard_" ^ qname in
  let merge =
    {
      pname = merge_name;
      pkind = Rts.Node.Hfta;
      pbody =
        Plan.Merge
          {
            Plan.merge_inputs =
              List.map
                (fun r -> Plan.From_stream { stream = r.pname; schema = rschema })
                replicas;
            merge_field = n_items;
          };
      pschema = rschema;
      pnic = None;
      ptable_bits = 0;
      pshard = None;
    }
  in
  let strip =
    {
      pname = qname;
      pkind = Rts.Node.Hfta;
      pbody =
        Plan.Select
          {
            sel_input = Plan.From_stream { stream = merge_name; schema = rschema };
            sel_pred = None;
            sel_items =
              List.mapi
                (fun i (f : Schema.field) -> (Expr_ir.Field (i, f.Schema.ty), f.Schema.name))
                (Array.to_list (Schema.fields node.pschema));
            sample = None;
          };
      pschema = node.pschema;
      pnic = None;
      ptable_bits = 0;
      pshard = None;
    }
  in
  ( { t with phys = replicas @ [ merge; strip ] },
    { squery = qname; smode = Round_robin; sshards = shards; stuples; sreunify = merge_name }
  )

(* A split sub/super aggregation: N replicas of the sub-aggregating LFTA,
   each owning the group keys that hash to its shard (round-robin when the
   epoch is the only key), reunified through a merge ordered on the epoch
   column and registered under the LFTA's name — the super-aggregating
   HFTA re-groups the shard partials exactly as it re-groups table
   evictions today, so the final output is unchanged. *)
let shard_sub_agg ~shards t (lfta : phys_node) (la : Plan.agg_body) (hfta : phys_node) =
  match (la.Plan.epoch, la.Plan.epoch_in_field) with
  | None, _ -> Error "no epoch group key to reunify the shard partials on"
  | _, None -> Error "the epoch key has no punctuation translator"
  | Some _, Some _ when la.Plan.epoch_band <> 0.0 ->
      Error "a banded epoch gives the reunification merge unsound bounds"
  | Some ek, Some _ ->
      let qname = t.plan.Plan.name in
      let stuples = Array.init shards (fun _ -> Metrics.Counter.make ()) in
      let non_epoch = List.filteri (fun j _ -> j <> ek) (List.map fst la.Plan.keys) in
      let smode = if non_epoch = [] then Round_robin else Hash_key in
      let replicas =
        List.init shards (fun i ->
            let owner =
              match smode with
              | Hash_key -> hash_owner ~shards ~me:i ~accepted:stuples.(i) non_epoch
              | Round_robin -> fst (round_robin_owner ~shards ~me:i ~accepted:stuples.(i))
            in
            {
              lfta with
              pname = replica_name qname i;
              pbody =
                Plan.Agg { la with Plan.agg_pred = Some (with_owner la.Plan.agg_pred owner) };
              pshard = Some { sshard = i; sseq = None };
            })
      in
      let merge =
        {
          pname = lfta.pname;
          pkind = Rts.Node.Hfta;
          pbody =
            Plan.Merge
              {
                Plan.merge_inputs =
                  List.map
                    (fun r -> Plan.From_stream { stream = r.pname; schema = lfta.pschema })
                    replicas;
                merge_field = ek;
              };
          pschema = lfta.pschema;
          pnic = None;
          ptable_bits = 0;
          pshard = None;
        }
      in
      Ok
        ( { t with phys = replicas @ [ merge; hfta ] },
          { squery = qname; smode; sshards = shards; stuples; sreunify = lfta.pname } )

let fallback_reason t =
  match t.plan.Plan.body with
  | Plan.Join _ -> "joins run as a single HFTA"
  | Plan.Merge _ -> "merges run as a single HFTA"
  | Plan.Select { sel_input = Plan.From_stream _; _ } | Plan.Agg { Plan.agg_input = Plan.From_stream _; _ }
    ->
      "stream input: shard the protocol tap upstream instead"
  | Plan.Select { sample = Some _; _ } -> "sampling draws from a single stream of randomness"
  | Plan.Select _ -> "an expensive predicate or item keeps the query on one HFTA"
  | Plan.Agg _ -> "an expensive predicate, key or argument keeps aggregation on one HFTA"

let shard ~shards (t : t) =
  if shards < 2 then Error "shards < 2"
  else if
    List.exists
      (fun p ->
        Array.exists (fun (f : Schema.field) -> f.Schema.name = "__seq") (Schema.fields p.pschema))
      t.phys
  then Error "a \"__seq\" column already exists"
  else
    match t.phys with
    | [
     ({ pkind = Rts.Node.Lfta; pbody = Plan.Select { sel_input; sel_pred; sel_items; sample = None }; _ }
      as node);
    ] ->
        Ok (shard_pure_select ~shards t node ~sel_input ~sel_pred ~sel_items)
    | [ ({ pkind = Rts.Node.Lfta; pbody = Plan.Agg la; _ } as lfta); ({ pkind = Rts.Node.Hfta; _ } as hfta) ]
      ->
        shard_sub_agg ~shards t lfta la hfta
    | _ -> Error (fallback_reason t)

