(* Static memory certification of compiled (split, possibly sharded)
   plans — the "bounded-memory criteria" gate from ROADMAP item 4.

   Every physical node gets a symbolic state bound derived from the
   ordering properties the analyzer imputed: open-group counts from the
   epoch key and its band, join buffers from the temporal window, merge
   reorder buffers from cross-input skew, sketch state from the sketch
   parameters. Bounds compose: a query's bound is the sum over its
   physical nodes, and an engine's bound is the sum over its queries
   (plus the bounded channels connecting them, which are sized from
   these very numbers at install time — see Engine).

   A node whose state cannot be bounded gets a structured [Unbounded]
   verdict naming the operator, the missing ordering property, and the
   rewrite that would fix it. The engine's admission control turns that
   verdict into a warning or a rejection; `gsq explain --memory` prints
   the whole derivation. *)

module Rts = Gigascope_rts
module Schema = Rts.Schema
module Ty = Rts.Ty
module Value = Rts.Value
module Order_prop = Rts.Order_prop

(* ---------------- the bound algebra ------------------------------------ *)

(* Bounds are symbolic so the report can say *why* a number is what it
   is; [eval] collapses them under a default cardinality model so the
   runtime can size channels and arm the watchdog with a concrete
   figure. *)
type expr =
  | Num of float
  | Card of string * float  (** named cardinality with its default estimate *)
  | Sum of expr list
  | Prod of expr list

let rec eval = function
  | Num f -> f
  | Card (_, d) -> d
  | Sum es -> List.fold_left (fun acc e -> acc +. eval e) 0.0 es
  | Prod es -> List.fold_left (fun acc e -> acc *. eval e) 1.0 es

let rec render = function
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
      else Printf.sprintf "%g" f
  | Card (n, d) -> Printf.sprintf "|%s|≈%g" n d
  | Sum [] -> "0"
  | Sum [ e ] -> render e
  | Sum es -> "(" ^ String.concat " + " (List.map render es) ^ ")"
  | Prod [] -> "1"
  | Prod [ e ] -> render e
  | Prod es -> String.concat " × " (List.map render es)

(* The default cardinality model. Deliberately round numbers: these are
   sizing estimates, not promises — the watchdog multiplies them by a
   slack factor before treating an excursion as a fault. *)
let default_key_card = 4096.0
let default_rate = 4096.0 (* tuples per time-unit of an ordered attribute *)
let default_skew = 4096.0 (* cross-input reorder skew of a merge *)

(* ---------------- verdicts --------------------------------------------- *)

type unbounded = {
  u_operator : string;  (** physical node name *)
  u_reason : string;  (** the missing ordering property *)
  u_fix : string;  (** the rewrite that would bound it *)
}

type verdict = Finite of expr | Unbounded of unbounded

type node_cert = {
  cname : string;
  ckind : string;
  cstate : verdict;  (** resident tuples/groups/cells *)
  cburst : int;  (** worst-case tuples emitted in one step (flush/drain) *)
  cdetail : string;  (** one-line derivation *)
}

type t = {
  cquery : string;
  cnodes : node_cert list;
  ctotal : verdict;  (** sum of node states, or the first unbounded one *)
}

let diagnostic (u : unbounded) =
  Printf.sprintf "operator %s holds unbounded state: %s; fix: %s" u.u_operator u.u_reason
    u.u_fix

(* ---------------- per-operator derivation ------------------------------ *)

(* Sketch accumulators carry real state per group; everything else
   (count/sum/min/max/avg) is one cell. *)
let agg_cells (c : Plan.agg_call) =
  match c.Plan.kind with
  | Rts.Agg_fn.Sketch { sk; _ } -> (
      match sk with
      | Rts.Agg_fn.Distinct { precision } -> float_of_int (1 lsl precision)
      | Rts.Agg_fn.Heavy { k } -> float_of_int k
      | Rts.Agg_fn.Freq { eps; delta } ->
          Float.ceil (Float.exp 1.0 /. eps) *. Float.ceil (Float.log (1.0 /. delta)))
  | _ -> 1.0

let group_weight (a : Plan.agg_body) =
  Float.max 1.0 (List.fold_left (fun acc c -> acc +. agg_cells c) 0.0 a.Plan.aggs)

let key_card (e, name) =
  match Expr_ir.ty e with
  | Ty.Bool -> Num 2.0
  | _ -> Card (name, default_key_card)

let bounded_agg_expr (a : Plan.agg_body) ~epochs =
  let non_epoch =
    List.filteri (fun i _ -> a.Plan.epoch <> Some i) a.Plan.keys |> List.map key_card
  in
  let w = group_weight a in
  Prod ((Num epochs :: non_epoch) @ if w > 1.0 then [ Num w ] else [])

let clamp_burst f =
  if Float.is_finite f then max 1 (min (int_of_float f) (1 lsl 20)) else 1 lsl 20

let certify_agg ~pname ~table_bits (a : Plan.agg_body) =
  if table_bits > 0 then begin
    (* LFTA direct-mapped table: 2^bits slots, collisions evict — the
       paper's constant-state per-packet path. Bounded with or without
       an epoch key. *)
    let slots = float_of_int (1 lsl table_bits) in
    let w = group_weight a in
    let expr = if w > 1.0 then Prod [ Num slots; Num w ] else Num slots in
    ( Finite expr,
      clamp_burst slots,
      Printf.sprintf "direct-mapped table: 2^%d slots%s, evict-on-collision" table_bits
        (if w > 1.0 then Printf.sprintf " × %g sketch cells/group" w else "") )
  end
  else
    match a.Plan.epoch with
    | None ->
        ( Unbounded
            {
              u_operator = pname;
              u_reason =
                "no group key is a monotone (epoch) attribute, so no group ever closes \
                 before EOF and the group table grows with every distinct key";
              u_fix =
                "GROUP BY a bucketed ordered attribute (e.g. time/60), or declare the \
                 source field's ordering in the catalog (increasing/decreasing); flush-only \
                 use needs --allow-unbounded";
            },
          clamp_burst
            (eval (bounded_agg_expr a ~epochs:1.0)),
          "group table flushes at EOF only" )
    | Some ek ->
        (* Groups strictly behind frontier − band close; so at most
           1 + ⌈band⌉ epoch values are ever open at once, each holding
           the cross product of the non-epoch keys. *)
        let epochs = 1.0 +. Float.ceil a.Plan.epoch_band in
        let expr = bounded_agg_expr a ~epochs in
        let ekname = try snd (List.nth a.Plan.keys ek) with _ -> "epoch" in
        ( Finite expr,
          clamp_burst (eval expr),
          Printf.sprintf "open epochs ≤ %g (epoch key %s, band %g) × non-epoch key space"
            epochs ekname a.Plan.epoch_band )

let certify_join ~pname (j : Plan.join_body) =
  let lo = j.Plan.win_lo and hi = j.Plan.win_hi in
  if Float.is_finite lo && Float.is_finite hi then begin
    let span = hi -. lo in
    let left_name =
      (Schema.field_at (Plan.input_schema j.Plan.left) j.Plan.left_ord).Schema.name
    in
    let per_side span_term =
      Prod [ Card ("rate", default_rate); Num (span_term +. 1.0) ]
    in
    (* Each side buffers tuples within the window span of the opposite
       bound; Ordered_output additionally holds matches below the output
       watermark, which lags by at most the span as well. *)
    let sides = [ per_side span; per_side span ] in
    let held = if j.Plan.ordered_output then [ per_side span ] else [] in
    let expr = Sum (sides @ held) in
    ( Finite expr,
      clamp_burst (eval expr),
      Printf.sprintf "window [%g, %g] on %s: per-side buffer ≤ rate × (span %g + 1)%s" lo
        hi left_name span
        (if j.Plan.ordered_output then ", plus the ordered-output hold heap" else "") )
  end
  else
    let missing =
      match (Float.is_finite lo, Float.is_finite hi) with
      | false, false -> "neither a lower nor an upper"
      | false, true -> "no lower"
      | true, false -> "no upper"
      | true, true -> assert false
    in
    ( Unbounded
        {
          u_operator = pname;
          u_reason =
            Printf.sprintf
              "the join predicate puts %s bound on left.ord − right.ord, so purging never \
               retires buffered tuples (window [%g, %g])"
              missing lo hi;
          u_fix =
            "add window conjuncts on the ordered attributes of both streams, e.g. \
             L.time >= R.time - 1 AND L.time <= R.time + 1";
        },
      1 lsl 12,
      "windowless join: both side buffers grow without bound" )

let certify_merge (m : Plan.merge_body) =
  let n = List.length m.Plan.merge_inputs in
  let fname =
    (Schema.field_at (Plan.input_schema (List.hd m.Plan.merge_inputs)) m.Plan.merge_field)
      .Schema.name
  in
  let expr = Prod [ Num (float_of_int n); Card ("skew(" ^ fname ^ ")", default_skew) ] in
  ( Finite expr,
    clamp_burst (eval expr),
    Printf.sprintf
      "%d ordered inputs on %s: each queue drains at the next covering bound, so state is \
       bounded by the cross-input skew" n fname )

let certify_node (p : Split.phys_node) =
  let state, burst, detail, kind =
    match p.Split.pbody with
    | Plan.Select _ -> (Finite (Num 0.0), 1, "stateless filter/projection", "select")
    | Plan.Agg a ->
        let s, b, d = certify_agg ~pname:p.Split.pname ~table_bits:p.Split.ptable_bits a in
        (s, b, d, if p.Split.ptable_bits > 0 then "lfta-agg" else "agg")
    | Plan.Join j ->
        let s, b, d = certify_join ~pname:p.Split.pname j in
        (s, b, d, "join")
    | Plan.Merge m ->
        let s, b, d = certify_merge m in
        (s, b, d, "merge")
  in
  { cname = p.Split.pname; ckind = kind; cstate = state; cburst = burst; cdetail = detail }

(* ---------------- composition ------------------------------------------ *)

let certify (split : Split.t) =
  let nodes = List.map certify_node split.Split.phys in
  let total =
    match
      List.find_map
        (fun c -> match c.cstate with Unbounded u -> Some u | Finite _ -> None)
        nodes
    with
    | Some u -> Unbounded u
    | None ->
        Finite
          (Sum
             (List.filter_map
                (fun c ->
                  match c.cstate with
                  | Finite (Num 0.0) -> None
                  | Finite e -> Some e
                  | Unbounded _ -> None)
                nodes))
  in
  { cquery = split.Split.plan.Plan.name; cnodes = nodes; ctotal = total }

let finite t = match t.ctotal with Finite _ -> true | Unbounded _ -> false

let total_estimate t =
  match t.ctotal with Finite e -> Some (eval e) | Unbounded _ -> None

let unbounded_nodes t =
  List.filter_map
    (fun c -> match c.cstate with Unbounded u -> Some u | Finite _ -> None)
    t.cnodes

let node_bound t name =
  List.find_map
    (fun c ->
      if String.lowercase_ascii c.cname = String.lowercase_ascii name then
        match c.cstate with Finite e -> Some (eval e) | Unbounded _ -> None
      else None)
    t.cnodes

let burst t name =
  match
    List.find_opt (fun c -> String.lowercase_ascii c.cname = String.lowercase_ascii name) t.cnodes
  with
  | Some c -> c.cburst
  | None -> 1

let query_burst t = List.fold_left (fun acc c -> max acc c.cburst) 1 t.cnodes

(* ---------------- reporting -------------------------------------------- *)

let report t =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "-- memory certification: %s --\n" t.cquery;
  List.iter
    (fun c ->
      match c.cstate with
      | Finite e ->
          Printf.bprintf buf "%-24s %-9s state ≤ %s (≈%.0f tuples)\n    %s\n" c.cname
            c.ckind (render e) (eval e) c.cdetail
      | Unbounded u ->
          Printf.bprintf buf "%-24s %-9s state UNBOUNDED\n    %s\n    fix: %s\n" c.cname
            c.ckind u.u_reason u.u_fix)
    t.cnodes;
  (match t.ctotal with
  | Finite e ->
      Printf.bprintf buf "query bound: %s ≈ %.0f resident tuples (channels are bounded \
                          rings sized from these bursts at install)\n"
        (render e) (eval e)
  | Unbounded u -> Printf.bprintf buf "query bound: UNBOUNDED — %s\n" (diagnostic u));
  Buffer.contents buf
