module Rts = Gigascope_rts
module Value = Rts.Value
module Ty = Rts.Ty
module Func = Rts.Func

type t =
  | Const of Value.t
  | Field of int * Ty.t
  | Param of string * Ty.t
  | Unop of Ast.unop * t
  | Binop of Ast.binop * t * t * Ty.t
  | Call of Func.t * t list

let ty = function
  | Const v -> (match Ty.of_value v with Some t -> t | None -> Ty.Int)
  | Field (_, t) -> t
  | Param (_, t) -> t
  | Unop (Ast.Not, _) -> Ty.Bool
  | Unop (Ast.Neg, e) -> (
      match e with
      | Const (Value.Float _) -> Ty.Float
      | Field (_, t) | Param (_, t) -> t
      | Binop (_, _, _, t) -> t
      | _ -> Ty.Int)
  | Binop (_, _, _, t) -> t
  | Call (f, _) -> f.Func.ret_ty

let fields_used e =
  let rec go acc = function
    | Const _ | Param _ -> acc
    | Field (i, _) -> i :: acc
    | Unop (_, a) -> go acc a
    | Binop (_, a, b, _) -> go (go acc a) b
    | Call (_, args) -> List.fold_left go acc args
  in
  List.sort_uniq compare (go [] e)

let params_used e =
  let rec go acc = function
    | Const _ | Field _ -> acc
    | Param (p, _) -> p :: acc
    | Unop (_, a) -> go acc a
    | Binop (_, a, b, _) -> go (go acc a) b
    | Call (_, args) -> List.fold_left go acc args
  in
  List.sort_uniq compare (go [] e)

let rec is_lfta_safe = function
  | Const _ | Field _ | Param _ -> true
  | Unop (_, a) -> is_lfta_safe a
  | Binop (_, a, b, _) -> is_lfta_safe a && is_lfta_safe b
  | Call (f, args) -> f.Func.cost = Func.Cheap && List.for_all is_lfta_safe args

let rec is_partial = function
  | Const _ | Field _ | Param _ -> false
  | Unop (_, a) -> is_partial a
  | Binop (_, a, b, _) -> is_partial a || is_partial b
  | Call (f, args) -> f.Func.partial || List.exists is_partial args

let rec depends_on e i =
  match e with
  | Const _ | Param _ -> false
  | Field (j, _) -> i = j
  | Unop (_, a) -> depends_on a i
  | Binop (_, a, b, _) -> depends_on a i || depends_on b i
  | Call (_, args) -> List.exists (fun a -> depends_on a i) args

let nonneg_const = function
  | Const (Value.Int c) -> c >= 0
  | Const (Value.Float c) -> c >= 0.0
  | _ -> false

let rec monotone_in e i =
  match e with
  | Field (j, _) -> i = j
  | Const _ | Param _ -> true (* constant in field i *)
  | Binop (Ast.Add, a, b, _) -> monotone_in a i && monotone_in b i
  | Binop (Ast.Sub, a, b, _) -> monotone_in a i && not (depends_on b i)
  | Binop (Ast.Mul, a, b, _) ->
      (monotone_in a i && nonneg_const b) || (monotone_in b i && nonneg_const a)
  | Binop (Ast.Div, a, b, _) -> monotone_in a i && nonneg_const b
  | Binop (Ast.Shr, a, b, _) -> monotone_in a i && nonneg_const b
  | Call (f, [arg]) -> f.Rts.Func.monotone && monotone_in arg i
  | _ -> not (depends_on e i)

let rec conjuncts = function
  | Binop (Ast.And, a, b, _) -> conjuncts a @ conjuncts b
  | e -> [e]

let conjoin = function
  | [] -> None
  | first :: rest ->
      Some (List.fold_left (fun acc e -> Binop (Ast.And, acc, e, Ty.Bool)) first rest)

let rec rebase_fields e ~mapping =
  match e with
  | Const _ | Param _ -> e
  | Field (i, t) -> Field (mapping i, t)
  | Unop (op, a) -> Unop (op, rebase_fields a ~mapping)
  | Binop (op, a, b, t) -> Binop (op, rebase_fields a ~mapping, rebase_fields b ~mapping, t)
  | Call (f, args) -> Call (f, List.map (fun a -> rebase_fields a ~mapping) args)

let rec subst_fields e ~subst =
  match e with
  | Const _ | Param _ -> e
  | Field (i, _) -> subst i
  | Unop (op, a) -> Unop (op, subst_fields a ~subst)
  | Binop (op, a, b, t) -> Binop (op, subst_fields a ~subst, subst_fields b ~subst, t)
  | Call (f, args) -> Call (f, List.map (fun a -> subst_fields a ~subst) args)

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> Value.equal x y
  | Field (i, _), Field (j, _) -> i = j
  | Param (p, _), Param (q, _) -> p = q
  | Unop (o1, x), Unop (o2, y) -> o1 = o2 && equal x y
  | Binop (o1, x1, y1, _), Binop (o2, x2, y2, _) -> o1 = o2 && equal x1 x2 && equal y1 y2
  | Call (f, xs), Call (g, ys) ->
      f.Func.name = g.Func.name
      && List.length xs = List.length ys
      && List.for_all2 equal xs ys
  | _ -> false

let binop_string = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Band -> "&"
  | Ast.Bor -> "|"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"
  | Ast.Eq -> "="
  | Ast.Ne -> "<>"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.And -> "and"
  | Ast.Or -> "or"

let rec pp_named names fmt = function
  | Const v -> Value.pp fmt v
  | Field (i, _) -> Format.pp_print_string fmt (names i)
  | Param (p, _) -> Format.fprintf fmt "$%s" p
  | Unop (Ast.Not, a) -> Format.fprintf fmt "(not %a)" (pp_named names) a
  | Unop (Ast.Neg, a) -> Format.fprintf fmt "(-%a)" (pp_named names) a
  | Binop (op, a, b, _) ->
      Format.fprintf fmt "(%a %s %a)" (pp_named names) a (binop_string op) (pp_named names) b
  | Call (f, args) ->
      Format.fprintf fmt "%s(" f.Func.name;
      List.iteri
        (fun i a ->
          if i > 0 then Format.fprintf fmt ", ";
          pp_named names fmt a)
        args;
      Format.fprintf fmt ")"

let pp = pp_named (Printf.sprintf "$f%d")

let to_string ?(names = Printf.sprintf "$f%d") e = Format.asprintf "%a" (pp_named names) e
