module Sk = Gigascope_sketch.Sketch

type sketch_spec =
  | Distinct of { precision : int }
  | Heavy of { k : int }
  | Freq of { eps : float; delta : float }

type kind = Count | Sum | Min | Max | Avg | Sketch of { sk : sketch_spec; partial : bool }

type spec = { kind : kind; arg : (Value.t array -> Value.t) option }

(* The accumulators of one list of aggregates, held by column over a
   fixed number of slots, as the group keys are: each aggregate gets
   only the columns its kind reads. Sum and Avg keep the count of
   numbers folded, their int sum, their float sum (every Int is added
   to both) and whether a Float was folded; Min and Max keep the
   extremum ([Null] until a value arrives); a sketch column holds each
   slot's sketch, [None] until the slot is first reset. *)
type sums = { n : int array; ints : int array; floats : Float.Array.t; floated : Bytes.t }

type column =
  | Counts of int array
  | Sums of sums
  | Avgs of sums
  | Mins of Value.t array
  | Maxs of Value.t array
  | Sketches of { sk : sketch_spec; partial : bool; sketches : Sk.t option array }

type t = { args : (Value.t array -> Value.t) option array; columns : column array }

let make_sketch = function
  | Distinct { precision } -> Sk.hll ~precision
  | Heavy { k } -> Sk.topk ~k
  | Freq { eps; delta } -> Sk.cm ~eps ~delta

let create specs ~slots =
  let sums () =
    {
      n = Array.make slots 0;
      ints = Array.make slots 0;
      floats = Float.Array.make slots 0.0;
      floated = Bytes.make slots '\000';
    }
  in
  {
    args = Array.map (fun sp -> sp.arg) specs;
    columns =
      Array.map
        (fun sp ->
          match sp.kind with
          | Count -> Counts (Array.make slots 0)
          | Sum -> Sums (sums ())
          | Avg -> Avgs (sums ())
          | Min -> Mins (Array.make slots Value.Null)
          | Max -> Maxs (Array.make slots Value.Null)
          | Sketch { sk; partial } -> Sketches { sk; partial; sketches = Array.make slots None })
        specs;
  }

let reset_sums s i =
  s.n.(i) <- 0;
  s.ints.(i) <- 0;
  Float.Array.set s.floats i 0.0;
  Bytes.set s.floated i '\000'

(* The loops over an aggregate list below are [for] loops: a closure
   over the slot index would be allocated on every call. *)
let reset t i =
  for a = 0 to Array.length t.columns - 1 do
    match t.columns.(a) with
    | Counts c -> c.(i) <- 0
    | Sums s | Avgs s -> reset_sums s i
    | Mins v | Maxs v -> v.(i) <- Value.Null
    | Sketches c -> c.sketches.(i) <- Some (make_sketch c.sk)
  done

(* The canonical item a sketch hashes: the value's printed form, so the
   same value folds identically on every node of an aggregation tree. *)
let canonical v = Value.to_string v

let step_sums s i = function
  | Value.Int x ->
      s.n.(i) <- s.n.(i) + 1;
      s.ints.(i) <- s.ints.(i) + x;
      Float.Array.set s.floats i (Float.Array.get s.floats i +. float_of_int x)
  | Value.Float f ->
      s.n.(i) <- s.n.(i) + 1;
      Bytes.set s.floated i '\001';
      Float.Array.set s.floats i (Float.Array.get s.floats i +. f)
  | Value.Null | Value.Bool _ | Value.Str _ | Value.Ip _ | Value.Sketch _ -> ()

(* The first of equal values stays. *)
let step_extremum m i v ~least =
  match (v, m.(i)) with
  | Value.Null, _ -> ()
  | v, Value.Null -> m.(i) <- v
  | v, prev ->
      let c = Value.compare v prev in
      if if least then c < 0 else c > 0 then m.(i) <- v

(* Count counts every tuple; every other kind skips a [Null] argument,
   as in SQL. *)
let step_column col i v =
  match col with
  | Counts c -> c.(i) <- c.(i) + 1
  | Sums s | Avgs s -> step_sums s i v
  | Mins m -> step_extremum m i v ~least:true
  | Maxs m -> step_extremum m i v ~least:false
  | Sketches c -> (
      match (v, c.sketches.(i)) with
      | Value.Null, _ | _, None -> ()
      | Value.Sketch s, Some dst -> (
          (* a lower tree level's partial state: merge, don't re-hash.
             An incompatible state is skipped like any ill-typed
             argument. *)
          match Sk.merge_into dst s with Ok () -> () | Error _ -> ())
      | v, Some s -> Sk.add s (canonical v))

let step t i values =
  for a = 0 to Array.length t.columns - 1 do
    let v =
      match t.args.(a) with
      | None -> Value.Null
      | Some f -> ( try f values with Value.No_value -> Value.Null)
    in
    step_column t.columns.(a) i v
  done

let copy_sums ~src i ~dst j =
  dst.n.(j) <- src.n.(i);
  dst.ints.(j) <- src.ints.(i);
  Float.Array.set dst.floats j (Float.Array.get src.floats i);
  Bytes.set dst.floated j (Bytes.get src.floated i)

let move ~src i ~dst j =
  for a = 0 to Array.length src.columns - 1 do
    match (src.columns.(a), dst.columns.(a)) with
    | Counts s, Counts d -> d.(j) <- s.(i)
    | (Sums s, Sums d) | (Avgs s, Avgs d) -> copy_sums ~src:s i ~dst:d j
    | (Mins s, Mins d) | (Maxs s, Maxs d) -> d.(j) <- s.(i)
    | Sketches s, Sketches d -> d.sketches.(j) <- s.sketches.(i)
    | _ -> invalid_arg "Agg_fn.move: different aggregates"
  done

let merge t i ~src j =
  for a = 0 to Array.length t.columns - 1 do
    match (t.columns.(a), src.columns.(a)) with
    | Counts d, Counts s -> d.(i) <- d.(i) + s.(j)
    | (Sums d, Sums s) | (Avgs d, Avgs s) ->
        d.n.(i) <- d.n.(i) + s.n.(j);
        d.ints.(i) <- d.ints.(i) + s.ints.(j);
        Float.Array.set d.floats i (Float.Array.get d.floats i +. Float.Array.get s.floats j);
        if Bytes.get s.floated j <> '\000' then Bytes.set d.floated i '\001'
    | Mins d, Mins s -> step_extremum d i s.(j) ~least:true
    | Maxs d, Maxs s -> step_extremum d i s.(j) ~least:false
    | Sketches d, Sketches s -> (
        match (d.sketches.(i), s.sketches.(j)) with
        | Some dst, Some src -> ( match Sk.merge_into dst src with Ok () -> () | Error _ -> ())
        | _ -> ())
    | _ -> invalid_arg "Agg_fn.merge: different aggregates"
  done

let render_top s =
  String.concat ","
    (List.map (fun (item, count) -> Printf.sprintf "%s:%d" item count) (Sk.top s))

let final_column col i =
  match col with
  | Counts c -> Value.Int c.(i)
  | Sums s ->
      if s.n.(i) = 0 then Value.Null
      else if Bytes.get s.floated i <> '\000' then Value.Float (Float.Array.get s.floats i)
      else Value.Int s.ints.(i)
  | Avgs s ->
      if s.n.(i) = 0 then Value.Null
      else Value.Float (Float.Array.get s.floats i /. float_of_int s.n.(i))
  | Mins m | Maxs m -> m.(i)
  | Sketches { partial = true; sketches; _ } -> (
      (* copied: the slot may keep folding after the emit *)
      match sketches.(i) with Some s -> Value.Sketch (Sk.copy s) | None -> Value.Null)
  | Sketches { sk; partial = false; sketches } -> (
      match sketches.(i) with
      | None -> Value.Null
      | Some s -> (
          match sk with
          | Distinct _ | Freq _ -> Value.Int (Sk.estimate s)
          | Heavy _ -> Value.Str (render_top s)))

let fill t i out off =
  for a = 0 to Array.length t.columns - 1 do
    out.(off + a) <- final_column t.columns.(a) i
  done

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
