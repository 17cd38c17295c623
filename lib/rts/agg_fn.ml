module Sk = Gigascope_sketch.Sketch

type sketch_spec =
  | Distinct of { precision : int }
  | Heavy of { k : int }
  | Freq of { eps : float; delta : float }

type kind = Count | Sum | Min | Max | Avg | Sketch of { sk : sketch_spec; partial : bool }

type spec = { kind : kind; arg : (Value.t array -> Value.t) option }

type acc = {
  kind : kind;
  mutable n : int;
  mutable sum_i : int;
  sum_f : float array;
      (* one cell: a float field in this mixed record would be boxed, so
         every numeric step would allocate *)
  mutable is_float : bool;
  mutable extremum : Value.t;
  mutable sketch : Sk.t option;
}

let make_sketch = function
  | Distinct { precision } -> Sk.hll ~precision
  | Heavy { k } -> Sk.topk ~k
  | Freq { eps; delta } -> Sk.cm ~eps ~delta

let fresh_sketch = function Sketch { sk; _ } -> Some (make_sketch sk) | _ -> None

let init kind =
  {
    kind;
    n = 0;
    sum_i = 0;
    sum_f = [| 0.0 |];
    is_float = false;
    extremum = Value.Null;
    sketch = fresh_sketch kind;
  }

let reset acc =
  acc.n <- 0;
  acc.sum_i <- 0;
  acc.sum_f.(0) <- 0.0;
  acc.is_float <- false;
  acc.extremum <- Value.Null;
  acc.sketch <- fresh_sketch acc.kind

(* The canonical item a sketch hashes: the value's printed form, so the
   same value folds identically on every node of an aggregation tree. *)
let canonical v = Value.to_string v

let step acc v =
  match (acc.kind, v) with
  | Count, _ -> acc.n <- acc.n + 1
  | _, Value.Null -> ()
  | Sketch _, Value.Sketch s -> (
      (* a lower tree level's partial state: merge, don't re-hash.
         An incompatible state is skipped like any ill-typed argument. *)
      acc.n <- acc.n + 1;
      match acc.sketch with
      | Some dst -> ( match Sk.merge_into dst s with Ok () -> () | Error _ -> ())
      | None -> acc.sketch <- Some (Sk.copy s))
  | Sketch _, v -> (
      acc.n <- acc.n + 1;
      match acc.sketch with Some s -> Sk.add s (canonical v) | None -> ())
  | (Sum | Avg), Value.Int i ->
      acc.n <- acc.n + 1;
      acc.sum_i <- acc.sum_i + i;
      acc.sum_f.(0) <- acc.sum_f.(0) +. float_of_int i
  | (Sum | Avg), Value.Float f ->
      acc.n <- acc.n + 1;
      acc.is_float <- true;
      acc.sum_f.(0) <- acc.sum_f.(0) +. f
  | Min, v ->
      acc.n <- acc.n + 1;
      if acc.extremum == Value.Null || Value.compare v acc.extremum < 0 then acc.extremum <- v
  | Max, v ->
      acc.n <- acc.n + 1;
      if acc.extremum == Value.Null || Value.compare v acc.extremum > 0 then acc.extremum <- v
  | (Sum | Avg), (Value.Bool _ | Value.Str _ | Value.Ip _ | Value.Sketch _) -> ()

let step_tuple (spec : spec) acc values =
  step acc
    (match spec.arg with
    | None -> Value.Null
    | Some f -> ( try f values with Value.No_value -> Value.Null))

let render_top s =
  String.concat ","
    (List.map (fun (item, count) -> Printf.sprintf "%s:%d" item count) (Sk.top s))

let final acc =
  match acc.kind with
  | Count -> Value.Int acc.n
  | Sum ->
      if acc.n = 0 then Value.Null
      else if acc.is_float then Value.Float acc.sum_f.(0)
      else Value.Int acc.sum_i
  | Avg -> if acc.n = 0 then Value.Null else Value.Float (acc.sum_f.(0) /. float_of_int acc.n)
  | Min | Max -> acc.extremum
  | Sketch { partial = true; _ } -> (
      (* copied: the accumulator may keep folding after the emit *)
      match acc.sketch with Some s -> Value.Sketch (Sk.copy s) | None -> Value.Null)
  | Sketch { sk; partial = false } -> (
      match acc.sketch with
      | None -> Value.Null
      | Some s -> (
          match sk with
          | Distinct _ | Freq _ -> Value.Int (Sk.estimate s)
          | Heavy _ -> Value.Str (render_top s)))

let merge_partial acc other =
  match acc.kind with
  | Count -> acc.n <- acc.n + other.n
  | Sum | Avg ->
      acc.n <- acc.n + other.n;
      acc.sum_i <- acc.sum_i + other.sum_i;
      acc.sum_f.(0) <- acc.sum_f.(0) +. other.sum_f.(0);
      acc.is_float <- acc.is_float || other.is_float
  | Min | Max -> (
      match other.extremum with
      | Value.Null -> ()
      | v ->
          acc.n <- acc.n + other.n;
          let better =
            match acc.extremum with
            | Value.Null -> true
            | prev ->
                if acc.kind = Min then Value.compare v prev < 0 else Value.compare v prev > 0
          in
          if better then acc.extremum <- v)
  | Sketch _ -> (
      acc.n <- acc.n + other.n;
      match (acc.sketch, other.sketch) with
      | Some dst, Some src -> ( match Sk.merge_into dst src with Ok () -> () | Error _ -> ())
      | None, Some src -> acc.sketch <- Some (Sk.copy src)
      | _, None -> ())

let sub_kinds = function
  | Count -> [Count]
  | Sum -> [Sum]
  | Min -> [Min]
  | Max -> [Max]
  | Avg -> [Sum; Count]
  | Sketch s -> [Sketch { s with partial = true }]

let super_kind = function
  | Count -> [Sum]
  | Sum -> [Sum]
  | Min -> [Min]
  | Max -> [Max]
  | Avg -> [Sum; Sum]
  | Sketch s -> [Sketch { s with partial = false }]

let relay_kind = function
  | Count -> Sum
  | Sum -> Sum
  | Min -> Min
  | Max -> Max
  | Avg -> Avg (* never a sub kind; kept total *)
  | Sketch s -> Sketch { s with partial = true }

let result_ty kind ~arg_ty =
  match kind with
  | Count -> Ty.Int
  | Avg -> Ty.Float
  | Sum | Min | Max -> ( match arg_ty with Some t -> t | None -> Ty.Int)
  | Sketch { partial = true; _ } -> Ty.Sketch
  | Sketch { sk = Distinct _ | Freq _; partial = false } -> Ty.Int
  | Sketch { sk = Heavy _; partial = false } -> Ty.Str

let kind_to_string = function
  | Count -> "count"
  | Sum -> "sum"
  | Min -> "min"
  | Max -> "max"
  | Avg -> "avg"
  | Sketch { sk = Distinct _; _ } -> "approx_count_distinct"
  | Sketch { sk = Heavy _; _ } -> "heavy_hitters"
  | Sketch { sk = Freq _; _ } -> "cm_count"
