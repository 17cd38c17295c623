type config = {
  base : Value.t array array;
  theta : Value.t array -> Value.t array -> bool;
  aggs : Agg_fn.spec array;
  epoch_field : int;
  direction : Order_prop.direction;
  band : float;
  assemble : base:Value.t array -> epoch:Value.t -> aggs:Value.t array -> Value.t array;
}

type t = {
  cfg : config;
  accs : Agg_fn.acc array array;  (** per base row, per aggregate *)
  mutable epoch : Value.t;  (** open epoch value; Null before any tuple *)
  mutable epochs_emitted : int;
  mutable done_ : bool;
}

let fresh_accs cfg =
  Array.map (fun _ -> Array.map (fun (s : Agg_fn.spec) -> Agg_fn.init s.Agg_fn.kind) cfg.aggs) cfg.base

let make cfg =
  if Array.length cfg.base = 0 then invalid_arg "Md_join_op.make: empty base relation";
  { cfg; accs = fresh_accs cfg; epoch = Value.Null; epochs_emitted = 0; done_ = false }

let ahead cfg a b =
  match cfg.direction with
  | Order_prop.Asc -> Value.compare a b > 0
  | Order_prop.Desc -> Value.compare a b < 0

(* The epoch a value belongs to, honouring the band: values within [band]
   of the frontier stay in the open epoch. *)
let band_allows cfg ~frontier v =
  if cfg.band = 0.0 then not (ahead cfg v frontier)
  else
    match (Value.to_float v, Value.to_float frontier) with
    | Some fv, Some ff -> (
        match cfg.direction with
        | Order_prop.Asc -> fv <= ff +. cfg.band
        | Order_prop.Desc -> fv >= ff -. cfg.band)
    | _ -> not (ahead cfg v frontier)

let emit_epoch t ~emit =
  t.epochs_emitted <- t.epochs_emitted + 1;
  Array.iteri
    (fun i base_row ->
      let agg_values = Array.map Agg_fn.final t.accs.(i) in
      ignore (emit (Item.Tuple (t.cfg.assemble ~base:base_row ~epoch:t.epoch ~aggs:agg_values)));
      Array.iter Agg_fn.reset t.accs.(i))
    t.cfg.base

let on_tuple t values ~emit =
  let cfg = t.cfg in
  if cfg.epoch_field >= 0 && cfg.epoch_field < Array.length values then begin
    let v = values.(cfg.epoch_field) in
    if t.epoch = Value.Null then t.epoch <- v
    else if not (band_allows cfg ~frontier:t.epoch v) then begin
      emit_epoch t ~emit;
      t.epoch <- v
    end
    else if ahead cfg v t.epoch then t.epoch <- v
  end;
  Array.iteri
    (fun i base_row ->
      if cfg.theta base_row values then
        Array.iteri (fun j spec -> Agg_fn.step_tuple spec t.accs.(i).(j) values) cfg.aggs)
    cfg.base

let op t =
  let on_ctrl ~input:_ item ~emit =
    match item with
    | Item.Punct bounds -> (
        (* a bound past the open epoch closes it *)
        match List.assoc_opt t.cfg.epoch_field bounds with
        | Some v when t.epoch <> Value.Null && not (band_allows t.cfg ~frontier:t.epoch v) ->
            emit_epoch t ~emit;
            t.epoch <- v
        | _ -> ())
    | Item.Flush ->
        if t.epoch <> Value.Null then emit_epoch t ~emit;
        emit Item.Flush
    | Item.Eof ->
        if not t.done_ then begin
          t.done_ <- true;
          if t.epoch <> Value.Null then emit_epoch t ~emit;
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
    buffered = (fun () -> Array.length t.cfg.base);
    reset = None;
  }

let epochs_emitted t = t.epochs_emitted
