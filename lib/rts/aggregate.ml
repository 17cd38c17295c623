type config = {
  pred : (Value.t array -> bool) option;
  keys : (Value.t array -> Value.t) array;
  epoch_key : int option;
  direction : Order_prop.direction;
  band : float;
  aggs : Agg_fn.spec array;
  assemble : keys:Value.t array -> aggs:Value.t array -> Value.t array;
  having : (Value.t array -> bool) option;
  epoch_out : int option;
  punct_in : (int * (Value.t -> Value.t option)) option;
}

type group = { key : Value.t array; accs : Agg_fn.acc array }

module Metrics = Gigascope_obs.Metrics

type t = {
  cfg : config;
  groups : group Group_tbl.t;
  mutable high_water : Value.t;  (** extremum of epoch values seen; Null before any *)
  flushes : Metrics.Counter.t;
  mutable done_ : bool;
}

(* [ahead a b] : does epoch value [a] come after [b] in stream direction? *)
let ahead cfg a b =
  match cfg.direction with
  | Order_prop.Asc -> Value.compare a b > 0
  | Order_prop.Desc -> Value.compare a b < 0

(* The closing threshold implied by a frontier value: groups strictly
   behind [frontier - band] can never receive another tuple. *)
let behind_threshold ~direction ~band frontier =
  if band = 0.0 then frontier
  else
    match Value.to_float frontier with
    | None -> frontier
    | Some f ->
        let shifted =
          match direction with Order_prop.Asc -> f -. band | Desc -> f +. band
        in
        (match frontier with
        | Value.Int _ ->
            Value.Int
              (match direction with
              | Order_prop.Asc -> int_of_float (Float.floor shifted)
              | Desc -> int_of_float (Float.ceil shifted))
        | _ -> Value.Float shifted)

let step_group g cfg values =
  Array.iteri (fun i spec -> Agg_fn.step_tuple spec g.accs.(i) values) cfg.aggs

(* The tuple's group key; raises [Value.No_value] when a key has none. *)
let eval_key keys values =
  let key = Array.make (Array.length keys) Value.Null in
  for i = 0 to Array.length keys - 1 do
    key.(i) <- keys.(i) values
  done;
  key

let emit_group t g ~emit =
  let agg_values = Array.map Agg_fn.final g.accs in
  let keep =
    match t.cfg.having with
    | None -> true
    | Some h -> h (Array.append g.key agg_values)
  in
  if keep then begin
    Metrics.Counter.incr t.flushes;
    ignore (emit (Item.Tuple (t.cfg.assemble ~keys:g.key ~aggs:agg_values)))
  end

(* Close and emit all groups whose epoch key is strictly behind
   [threshold]; [threshold = None] closes everything. Emission is in epoch
   order so the output epoch attribute stays monotone. *)
let flush_behind t ?threshold ~emit () =
  match t.cfg.epoch_key with
  | None -> (
      match threshold with
      | Some _ -> () (* no epoch key: only a full flush makes sense *)
      | None ->
          let all = Group_tbl.fold (fun _ g acc -> g :: acc) t.groups [] in
          Group_tbl.clear t.groups;
          List.iter (fun g -> emit_group t g ~emit) all)
  | Some ek ->
      let candidates =
        Group_tbl.fold
          (fun _ g acc ->
            let close =
              match threshold with
              | None -> true
              | Some thr -> ahead t.cfg thr g.key.(ek)
            in
            if close then g :: acc else acc)
          t.groups []
      in
      let sorted =
        List.sort
          (fun a b ->
            let c = Value.compare a.key.(ek) b.key.(ek) in
            let c = if t.cfg.direction = Order_prop.Desc then -c else c in
            if c <> 0 then c else compare a.key b.key)
          candidates
      in
      List.iter
        (fun g ->
          Group_tbl.remove t.groups g.key;
          emit_group t g ~emit)
        sorted

let make cfg =
  {
    cfg;
    groups = Group_tbl.create 64;
    high_water = Value.Null;
    flushes = Metrics.Counter.make ();
    done_ = false;
  }

let on_tuple t values ~emit =
  let cfg = t.cfg in
  if match cfg.pred with Some p -> p values | None -> true then
    match eval_key cfg.keys values with
    | exception Value.No_value -> ()
    | key ->
        (match cfg.epoch_key with
        | Some ek ->
            let v = key.(ek) in
            let advanced = t.high_water = Value.Null || ahead cfg v t.high_water in
            if advanced then begin
              t.high_water <- v;
              flush_behind t
                ~threshold:(behind_threshold ~direction:cfg.direction ~band:cfg.band v)
                ~emit ()
            end
        | None -> ());
        let group =
          match Group_tbl.find_opt t.groups key with
          | Some g -> g
          | None ->
              let g = { key; accs = Array.map (fun s -> Agg_fn.init s.Agg_fn.kind) cfg.aggs } in
              Group_tbl.replace t.groups key g;
              g
        in
        step_group group cfg values

let on_punct t bounds ~emit =
  match (t.cfg.punct_in, t.cfg.epoch_key) with
  | Some (in_field, translate), Some _ -> (
      match List.assoc_opt in_field bounds with
      | Some bound -> (
          match translate bound with
          | Some epoch_bound -> (
              flush_behind t ~threshold:epoch_bound ~emit ();
              match t.cfg.epoch_out with
              | Some out_idx -> emit (Item.Punct [(out_idx, epoch_bound)])
              | None -> ())
          | None -> ())
      | None -> ())
  | _ -> ()

let op t =
  let on_ctrl ~input:_ item ~emit =
    match item with
    | Item.Punct bounds -> on_punct t bounds ~emit
    | Item.Flush ->
        flush_behind t ~emit ();
        emit Item.Flush
    | Item.Eof ->
        if not t.done_ then begin
          t.done_ <- true;
          flush_behind t ~emit ();
          emit Item.Eof
        end
    | (Item.Error _ | Item.Gap _) as ctrl -> emit ctrl
    | Item.Tuple _ -> ()
  in
  {
    Operator.on_tuple = (fun ~input:_ values ~emit -> on_tuple t values ~emit);
    on_batch_end = (fun ~emit:_ -> ());
    on_ctrl;
    blocked_input = (fun () -> None);
    buffered = (fun () -> Group_tbl.length t.groups);
    reset = None;
  }

let open_groups t = Group_tbl.length t.groups
let flushes t = Metrics.Counter.get t.flushes

let register_metrics t reg ~prefix =
  Metrics.attach_counter reg (prefix ^ ".flushes") t.flushes;
  Metrics.attach_gauge_fn reg (prefix ^ ".open_groups") (fun () ->
      float_of_int (Group_tbl.length t.groups))
