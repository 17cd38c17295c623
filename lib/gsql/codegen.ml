module Rts = Gigascope_rts
module Value = Rts.Value
module Ty = Rts.Ty
module Schema = Rts.Schema
module Func = Rts.Func
module Order_prop = Rts.Order_prop

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

type params = (string, Value.t) Hashtbl.t

(* ---------------- value-level operator semantics ----------------------- *)

(* Compiled expressions return the value itself and signal "no value" —
   a partial function missed, a parameter is unset, arithmetic faulted
   or an operand is ill-typed — by raising [Value.No_value]. Booleans are
   the two shared constants below, so comparisons and connectives
   allocate nothing. *)
let no_value () = raise_notrace Value.No_value
let vtrue = Value.Bool true
let vfalse = Value.Bool false
let of_bool b = if b then vtrue else vfalse

let num = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | Value.Bool b -> if b then 1.0 else 0.0
  | Value.Null | Value.Str _ | Value.Ip _ | Value.Sketch _ -> no_value ()

(* Int and Ip operands combine as integers; the checker allowed the mix.
   Otherwise + - * / fall back to floats and the bitwise operators have
   no value. *)
let add a b =
  match (a, b) with
  | (Value.Int x | Value.Ip x), (Value.Int y | Value.Ip y) -> Value.Int (x + y)
  | _ -> Value.Float (num a +. num b)

let sub a b =
  match (a, b) with
  | (Value.Int x | Value.Ip x), (Value.Int y | Value.Ip y) -> Value.Int (x - y)
  | _ -> Value.Float (num a -. num b)

let mul a b =
  match (a, b) with
  | (Value.Int x | Value.Ip x), (Value.Int y | Value.Ip y) -> Value.Int (x * y)
  | _ -> Value.Float (num a *. num b)

let div a b =
  match (a, b) with
  | (Value.Int x | Value.Ip x), (Value.Int y | Value.Ip y) ->
      if y = 0 then no_value () else Value.Int (x / y)
  | _ ->
      let x = num a and y = num b in
      if y = 0.0 then no_value () else Value.Float (x /. y)

let int_op f a b =
  match (a, b) with
  | (Value.Int x | Value.Ip x), (Value.Int y | Value.Ip y) -> Value.Int (f x y)
  | _ -> no_value ()

let rem a b =
  match (a, b) with
  | (Value.Int x | Value.Ip x), (Value.Int y | Value.Ip y) ->
      if y = 0 then no_value () else Value.Int (x mod y)
  | _ -> no_value ()

(* Ip and Int compare as numbers. *)
let compare_vals a b =
  match (a, b) with
  | (Value.Int x | Value.Ip x), (Value.Int y | Value.Ip y) -> Int.compare x y
  | _ -> Value.compare a b

(* ---------------- expression compilation ------------------------------- *)

let rec compile_expr ~params (e : Expr_ir.t) =
  match e with
  | Expr_ir.Const v -> Ok (fun _ -> v)
  | Expr_ir.Field (i, _) -> Ok (fun tup -> if i < Array.length tup then tup.(i) else no_value ())
  | Expr_ir.Param (name, _) ->
      Ok
        (fun _ ->
          match Hashtbl.find params name with
          | v -> v
          | exception Not_found -> no_value ())
  | Expr_ir.Unop (Ast.Not, a) ->
      let* fa = compile_expr ~params a in
      Ok (fun tup -> match fa tup with Value.Bool b -> of_bool (not b) | _ -> no_value ())
  | Expr_ir.Unop (Ast.Neg, a) ->
      let* fa = compile_expr ~params a in
      Ok
        (fun tup ->
          match fa tup with
          | Value.Int i -> Value.Int (-i)
          | Value.Float f -> Value.Float (-.f)
          | _ -> no_value ())
  | Expr_ir.Binop (op, a, b, _) ->
      let* fa = compile_expr ~params a in
      let* fb = compile_expr ~params b in
      Ok
        (match op with
        | Ast.And ->
            fun tup ->
              if Value.is_truthy (fa tup) then of_bool (Value.is_truthy (fb tup)) else vfalse
        | Ast.Or ->
            fun tup ->
              if Value.is_truthy (fa tup) then vtrue else of_bool (Value.is_truthy (fb tup))
        | Ast.Eq -> fun tup -> of_bool (compare_vals (fa tup) (fb tup) = 0)
        | Ast.Ne -> fun tup -> of_bool (compare_vals (fa tup) (fb tup) <> 0)
        | Ast.Lt -> fun tup -> of_bool (compare_vals (fa tup) (fb tup) < 0)
        | Ast.Le -> fun tup -> of_bool (compare_vals (fa tup) (fb tup) <= 0)
        | Ast.Gt -> fun tup -> of_bool (compare_vals (fa tup) (fb tup) > 0)
        | Ast.Ge -> fun tup -> of_bool (compare_vals (fa tup) (fb tup) >= 0)
        | Ast.Add -> fun tup -> add (fa tup) (fb tup)
        | Ast.Sub -> fun tup -> sub (fa tup) (fb tup)
        | Ast.Mul -> fun tup -> mul (fa tup) (fb tup)
        | Ast.Div -> fun tup -> div (fa tup) (fb tup)
        | Ast.Mod -> fun tup -> rem (fa tup) (fb tup)
        | Ast.Band -> fun tup -> int_op ( land ) (fa tup) (fb tup)
        | Ast.Bor -> fun tup -> int_op ( lor ) (fa tup) (fb tup)
        | Ast.Shl -> fun tup -> int_op ( lsl ) (fa tup) (fb tup)
        | Ast.Shr -> fun tup -> int_op ( lsr ) (fa tup) (fb tup))
  | Expr_ir.Call (f, args) ->
      (* Instantiate handles now: the expensive preprocessing of
         pass-by-handle parameters happens once per query instance. *)
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
          for i = 0 to n - 1 do
            vals.(i) <- arg_fns.(i) tup
          done;
          match impl vals with Some v -> v | None -> no_value ())

(* ---------------- predicate compilation -------------------------------- *)

(* Predicates compile to closures that return [bool]. A comparison
   between an Int/Ip field and an Int/Ip constant compares unboxed ints
   while the field holds an Int or an Ip, as every packet field a
   Protocol interprets does; any other value (or a field past the end
   of the tuple) goes to [slow], the boxed closure, so the answer and
   "no value" are exactly [compile_expr]'s. *)
let[@inline] field tup i = if i < Array.length tup then Array.unsafe_get tup i else Value.Null

let field_cmp op i k slow =
  match op with
  | Ast.Eq -> fun tup -> ( match field tup i with Value.Int x | Value.Ip x -> x = k | _ -> slow tup)
  | Ast.Ne -> fun tup -> ( match field tup i with Value.Int x | Value.Ip x -> x <> k | _ -> slow tup)
  | Ast.Lt -> fun tup -> ( match field tup i with Value.Int x | Value.Ip x -> x < k | _ -> slow tup)
  | Ast.Le -> fun tup -> ( match field tup i with Value.Int x | Value.Ip x -> x <= k | _ -> slow tup)
  | Ast.Gt -> fun tup -> ( match field tup i with Value.Int x | Value.Ip x -> x > k | _ -> slow tup)
  | _ -> fun tup -> ( match field tup i with Value.Int x | Value.Ip x -> x >= k | _ -> slow tup)

let flip = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op

(* And and Or evaluate left to right and short-circuit, as the boxed
   connectives do, so a "no value" raised on either side propagates the
   same way. *)
let rec compile_test ~params (e : Expr_ir.t) =
  let boxed () =
    let* f = compile_expr ~params e in
    Ok (fun tup -> Value.is_truthy (f tup))
  in
  match e with
  | Expr_ir.Binop (Ast.And, a, b, _) ->
      let* ta = compile_test ~params a in
      let* tb = compile_test ~params b in
      Ok (fun tup -> ta tup && tb tup)
  | Expr_ir.Binop (Ast.Or, a, b, _) ->
      let* ta = compile_test ~params a in
      let* tb = compile_test ~params b in
      Ok (fun tup -> ta tup || tb tup)
  | Expr_ir.Binop
      ( ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
        Expr_ir.Field (i, (Ty.Int | Ty.Ip)),
        Expr_ir.Const (Value.Int k | Value.Ip k),
        _ ) ->
      let* slow = boxed () in
      Ok (field_cmp op i k slow)
  | Expr_ir.Binop
      ( ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
        Expr_ir.Const (Value.Int k | Value.Ip k),
        Expr_ir.Field (i, (Ty.Int | Ty.Ip)),
        _ ) ->
      let* slow = boxed () in
      Ok (field_cmp (flip op) i k slow)
  | _ -> boxed ()

let compile_pred ~params e =
  let* t = compile_test ~params e in
  Ok (fun tup -> match t tup with b -> b | exception Value.No_value -> false)

(* ---------------- operator construction -------------------------------- *)

type source_binder = {
  bind_source :
    interface:string -> protocol:string -> nic:Split.nic_hint option -> (string, string) result;
}

type instance = {
  inst_name : string;
  out_node : Rts.Node.t;
  node_names : string list;
  inst_params : params;
  lfta_aggs : (string * Rts.Lfta_aggregate.t) list;
  hfta_aggs : (string * Rts.Aggregate.t) list;
  merges : (string * Rts.Merge_op.t) list;
  joins : (string * Rts.Join_op.t) list;
}

let set_param inst name v = Hashtbl.replace inst.inst_params name v

let compile_items ~params items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (e, _) :: rest ->
        let* f = compile_expr ~params e in
        go (f :: acc) rest
  in
  let* fns = go [] items in
  Ok (Array.of_list fns)

(* Projection closure: None when any partial item misses. *)
let projector item_fns =
  let n = Array.length item_fns in
  fun tup ->
    let out = Array.make n Value.Null in
    match
      for i = 0 to n - 1 do
        out.(i) <- item_fns.(i) tup
      done
    with
    | () -> Some out
    | exception Value.No_value -> None

(* Identity-projected ordered input fields, for punctuation translation. *)
let punct_map_of_items ~in_schema items =
  List.concat
    (List.mapi
       (fun out_idx (e, _) ->
         match e with
         | Expr_ir.Field (i, _)
           when i < Schema.arity in_schema
                && Order_prop.usable_for_window (Schema.field_at in_schema i).Schema.order ->
             [(i, out_idx)]
         | _ -> [])
       items)

(* Translate a punctuation bound through a single-field monotone key
   expression by evaluating it on a synthetic tuple. *)
let bound_translator ~params key_expr ~in_field ~in_arity =
  match compile_expr ~params key_expr with
  | Error _ -> fun _ -> None
  | Ok f ->
      fun bound ->
        let synthetic = Array.make in_arity Value.Null in
        if in_field < in_arity then synthetic.(in_field) <- bound;
        match f synthetic with v -> Some v | exception Value.No_value -> None

let agg_specs ~params (aggs : Plan.agg_call list) =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | (c : Plan.agg_call) :: rest ->
        let* arg =
          match c.Plan.arg with
          | None -> Ok None
          | Some e ->
              let* f = compile_expr ~params e in
              Ok (Some f)
        in
        go ({ Rts.Agg_fn.kind = c.Plan.kind; arg } :: acc) rest
  in
  go [] aggs

let make_agg_config ~params (a : Plan.agg_body) =
  let in_schema = Plan.input_schema a.Plan.agg_input in
  let in_arity = Schema.arity in_schema in
  let* pred =
    match a.Plan.agg_pred with
    | None -> Ok None
    | Some p ->
        let* f = compile_pred ~params p in
        Ok (Some f)
  in
  let* key_fns = compile_items ~params a.Plan.keys in
  let* aggs = agg_specs ~params a.Plan.aggs in
  let* item_fns = compile_items ~params a.Plan.agg_items in
  let* having =
    match a.Plan.having with
    | None -> Ok None
    | Some h ->
        let* p = compile_pred ~params h in
        Ok (Some p)
  in
  let n_items = Array.length item_fns in
  let assemble virt =
    let out = Array.make n_items Value.Null in
    for i = 0 to n_items - 1 do
      out.(i) <- (try item_fns.(i) virt with Value.No_value -> Value.Null)
    done;
    out
  in
  let epoch_out =
    (* where does the epoch key land in the output? an item that is exactly
       Field(epoch index in the virtual tuple) *)
    match a.Plan.epoch with
    | None -> None
    | Some ek ->
        let rec find i = function
          | [] -> None
          | (Expr_ir.Field (j, _), _) :: _ when j = ek -> Some i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 a.Plan.agg_items
  in
  let punct_in =
    match (a.Plan.epoch, a.Plan.epoch_in_field) with
    | Some ek, Some in_field ->
        let key_expr, _ = List.nth a.Plan.keys ek in
        Some (in_field, bound_translator ~params key_expr ~in_field ~in_arity)
    | _ -> None
  in
  Ok
    {
      Rts.Aggregate.pred;
      keys = key_fns;
      epoch_key = a.Plan.epoch;
      direction = a.Plan.epoch_dir;
      band = a.Plan.epoch_band;
      aggs;
      assemble;
      having;
      epoch_out;
      punct_in;
    }

(* A shard replica's select appends a private "__seq" column the
   reunification merge orders on. Tuples advance the merge's bound on
   that column, but a quiet replica must too: whenever the replica sees
   punctuation, re-publish it as a bound on the sequence column —
   [next_seq ()] is the next index this replica could ever assign, hence
   a firm lower bound on everything it will still emit. *)
let shard_seq_wrap (op : Rts.Operator.t) ~seq_idx ~next_seq =
  let on_ctrl ~input item ~emit =
    op.Rts.Operator.on_ctrl ~input item ~emit;
    match item with
    | Rts.Item.Punct _ -> emit (Rts.Item.Punct [ (seq_idx, Value.Int (next_seq ())) ])
    | _ -> ()
  in
  { op with Rts.Operator.on_ctrl }

let make_op ~params ~seed (phys : Split.phys_node) =
  match phys.Split.pbody with
  | Plan.Select { sel_input; sel_pred; sel_items; sample } ->
      let in_schema = Plan.input_schema sel_input in
      let* pred =
        match sel_pred with
        | None -> Ok None
        | Some p ->
            let* f = compile_pred ~params p in
            Ok (Some f)
      in
      let* pred =
        match sample with
        | None -> Ok pred
        | Some rate ->
            let rng = Gigascope_util.Prng.create seed in
            let sampled tup =
              (match pred with None -> true | Some p -> p tup)
              && Gigascope_util.Prng.float rng 1.0 < rate
            in
            Ok (Some sampled)
      in
      let* item_fns = compile_items ~params sel_items in
      let punct_map = punct_map_of_items ~in_schema sel_items in
      let rejected = Gigascope_obs.Metrics.Counter.make () in
      let op = Rts.Select_op.make ~rejected ?pred ~project:(projector item_fns) ~punct_map () in
      let op =
        match phys.Split.pshard with
        | Some { Split.sseq = Some (seq_idx, next_seq); _ } -> shard_seq_wrap op ~seq_idx ~next_seq
        | _ -> op
      in
      Ok (op, `Select rejected)
  | Plan.Agg a ->
      let* cfg = make_agg_config ~params a in
      if phys.Split.pkind = Rts.Node.Lfta then begin
        let lcfg =
          {
            Rts.Lfta_aggregate.table_bits = (if phys.Split.ptable_bits > 0 then phys.Split.ptable_bits else 12);
            pred = cfg.Rts.Aggregate.pred;
            keys = cfg.Rts.Aggregate.keys;
            epoch_key = cfg.Rts.Aggregate.epoch_key;
            direction = cfg.Rts.Aggregate.direction;
            band = cfg.Rts.Aggregate.band;
            aggs = cfg.Rts.Aggregate.aggs;
            assemble = cfg.Rts.Aggregate.assemble;
            punct_in = cfg.Rts.Aggregate.punct_in;
            epoch_out = cfg.Rts.Aggregate.epoch_out;
          }
        in
        let agg = Rts.Lfta_aggregate.make lcfg in
        Ok (Rts.Lfta_aggregate.op agg, `Lfta_agg agg)
      end
      else begin
        let agg = Rts.Aggregate.make cfg in
        Ok (Rts.Aggregate.op agg, `Hfta_agg agg)
      end
  | Plan.Join j ->
      let left_schema = Plan.input_schema j.Plan.left in
      let n_left = Schema.arity left_schema in
      let* pred_fn =
        match j.Plan.join_pred with
        | None -> Ok (fun _ -> true)
        | Some p -> compile_pred ~params p
      in
      let* item_fns = compile_items ~params j.Plan.join_items in
      let project = projector item_fns in
      let find_identity target =
        let rec go i = function
          | [] -> None
          | (Expr_ir.Field (k, _), _) :: _ when k = target -> Some i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 j.Plan.join_items
      in
      let cfg =
        {
          Rts.Join_op.output_mode =
            (if j.Plan.ordered_output then Rts.Join_op.Ordered_output
             else Rts.Join_op.Banded_output);
          left_idx = j.Plan.left_ord;
          right_idx = j.Plan.right_ord;
          lo = j.Plan.win_lo;
          hi = j.Plan.win_hi;
          pred = (fun l r -> pred_fn (Array.append l r));
          assemble = (fun l r -> project (Array.append l r));
          left_out = find_identity j.Plan.left_ord;
          right_out = find_identity (n_left + j.Plan.right_ord);
        }
      in
      let join = Rts.Join_op.make cfg in
      Ok (Rts.Join_op.op join, `Join join)
  | Plan.Merge m ->
      let schema = Plan.input_schema (List.hd m.Plan.merge_inputs) in
      let direction =
        match
          Order_prop.direction_of (Schema.field_at schema m.Plan.merge_field).Schema.order
        with
        | Some d -> d
        | None -> Order_prop.Asc
      in
      (* Monotone fields beyond the merge attribute survive the merge;
         republishing their bounds keeps operators keyed on them (e.g. an
         epoch aggregation downstream of a shard reunification) unblocked. *)
      let forward =
        List.concat
          (List.init (Schema.arity schema) (fun i ->
               if i = m.Plan.merge_field then []
               else
                 match (Schema.field_at schema i).Schema.order with
                 | Order_prop.Monotone d | Order_prop.Strict d -> [ (i, d) ]
                 | _ -> []))
      in
      let cfg =
        {
          Rts.Merge_op.n_inputs = List.length m.Plan.merge_inputs;
          ordered_idx = m.Plan.merge_field;
          direction;
        }
      in
      let merge = Rts.Merge_op.make ~forward cfg in
      Ok (Rts.Merge_op.op merge, `Merge merge)

let input_names ~binder (phys : Split.phys_node) =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Plan.From_protocol { interface; protocol; _ } :: rest ->
        let* name = binder.bind_source ~interface ~protocol ~nic:phys.Split.pnic in
        go (name :: acc) rest
    | Plan.From_stream { stream; _ } :: rest -> go (stream :: acc) rest
  in
  go [] (Plan.inputs_of_body phys.Split.pbody)

let install mgr ~source_binder ?(params = []) ?(seed = 0x6516) ?chan_capacity
    (split : Split.t) =
  let param_tbl : params = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace param_tbl k v) params;
  (* Check every declared parameter has a value when used in handles is
     deferred to expression compilation; here just install node by node. *)
  let reg = Rts.Manager.metrics mgr in
  (* Operator-specific cells attach once the node exists: the node name
     anchors the metric namespace. *)
  let register_op_metrics name stat =
    let pfx sub = Printf.sprintf "rts.node.%s.%s" name sub in
    match stat with
    | `Select rejected -> Gigascope_obs.Metrics.attach_counter reg (pfx "select.rejected") rejected
    | `Lfta_agg agg -> Rts.Lfta_aggregate.register_metrics agg reg ~prefix:(pfx "lfta")
    | `Hfta_agg agg -> Rts.Aggregate.register_metrics agg reg ~prefix:(pfx "agg")
    | `Join join -> Rts.Join_op.register_metrics join reg ~prefix:(pfx "join")
    | `Merge merge -> Rts.Merge_op.register_metrics merge reg ~prefix:(pfx "merge")
  in
  let rec go acc_names acc_stats = function
    | [] -> Ok (List.rev acc_names, acc_stats)
    | (phys : Split.phys_node) :: rest ->
        let* op, stat = make_op ~params:param_tbl ~seed phys in
        let* inputs = input_names ~binder:source_binder phys in
        (* Certified-burst auto-sizing: the engine supplies the input
           ring capacity this node needs to absorb its upstream's
           largest single-step emission (an LFTA table flush, a merge
           drain). The manager only ever grows past its default. *)
        let capacity =
          match chan_capacity with Some f -> f phys.Split.pname | None -> None
        in
        let* node =
          Rts.Manager.add_query_node_sized mgr ~capacity ~name:phys.Split.pname
            ~kind:phys.Split.pkind ~schema:phys.Split.pschema ~inputs ~op
        in
        Rts.Node.set_shard node (Option.map (fun s -> s.Split.sshard) phys.Split.pshard);
        register_op_metrics phys.Split.pname stat;
        go (phys.Split.pname :: acc_names) ((phys.Split.pname, stat) :: acc_stats) rest
  in
  let* node_names, stats = go [] [] split.Split.phys in
  let inst_name = split.Split.plan.Plan.name in
  match Rts.Manager.find mgr inst_name with
  | None -> err "codegen: query node %s vanished" inst_name
  | Some out_node ->
      let pick f = List.filter_map (fun (n, s) -> f n s) stats in
      Ok
        {
          inst_name;
          out_node;
          node_names;
          inst_params = param_tbl;
          lfta_aggs = pick (fun n s -> match s with `Lfta_agg a -> Some (n, a) | _ -> None);
          hfta_aggs = pick (fun n s -> match s with `Hfta_agg a -> Some (n, a) | _ -> None);
          merges = pick (fun n s -> match s with `Merge m -> Some (n, m) | _ -> None);
          joins = pick (fun n s -> match s with `Join j -> Some (n, j) | _ -> None);
        }
