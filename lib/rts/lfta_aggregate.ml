type config = {
  table_bits : int;
  pred : (Value.t array -> bool) option;
  keys : (Value.t array -> Value.t option) array;
  epoch_key : int option;
  direction : Order_prop.direction;
  band : float;
  aggs : Agg_fn.spec array;
  assemble : keys:Value.t array -> aggs:Value.t array -> Value.t array;
  (* Punctuation translation, exactly as in {!Aggregate}: [punct_in]
     maps an input-field bound onto the epoch-key domain, [epoch_out] is
     the output position the epoch key lands in. With both set, an input
     punctuation flushes the table (as always) and then emits a
     translated bound on the output, so the consumer (an HFTA, or a
     sharded reunification merge) can advance without waiting for the
     next tuple. With [epoch_out] set, an epoch advance also emits its
     bound after the flush. *)
  punct_in : (int * (Value.t -> Value.t option)) option;
  epoch_out : int option;
}

type slot = { key : Value.t array; accs : Agg_fn.acc array }

module Metrics = Gigascope_obs.Metrics

type t = {
  cfg : config;
  slots : slot option array;
  mutable occupied : int;
  mutable high_water : Value.t;
  evictions : Metrics.Counter.t;
  emitted : Metrics.Counter.t;
  mutable done_ : bool;
}

let make cfg =
  if cfg.table_bits < 0 || cfg.table_bits > 24 then
    invalid_arg "Lfta_aggregate.make: table_bits out of range";
  {
    cfg;
    slots = Array.make (1 lsl cfg.table_bits) None;
    occupied = 0;
    high_water = Value.Null;
    evictions = Metrics.Counter.make ();
    emitted = Metrics.Counter.make ();
    done_ = false;
  }

let ahead cfg a b =
  match cfg.direction with
  | Order_prop.Asc -> Value.compare a b > 0
  | Order_prop.Desc -> Value.compare a b < 0

let emit_slot t s ~emit =
  let agg_values = Array.map Agg_fn.final s.accs in
  let out = t.cfg.assemble ~keys:s.key ~aggs:agg_values in
  Metrics.Counter.incr t.emitted;
  ignore (emit (Item.Tuple out))

let flush_all t ~emit =
  (* Slot order is deterministic and cheap; the downstream HFTA re-groups,
     so no ordering promise is needed beyond bandedness. *)
  Array.iteri
    (fun i slot ->
      match slot with
      | Some s ->
          t.slots.(i) <- None;
          t.occupied <- t.occupied - 1;
          emit_slot t s ~emit
      | None -> ())
    t.slots

let on_tuple t values ~emit =
  let cfg = t.cfg in
  if (match cfg.pred with Some p -> p values | None -> true) then begin
  let n = Array.length cfg.keys in
  let key = Array.make n Value.Null in
  let ok = ref true in
  Array.iteri
    (fun i kf ->
      match kf values with
      | Some v -> key.(i) <- v
      | None -> ok := false)
    cfg.keys;
  if !ok then begin
    (match cfg.epoch_key with
    | Some ek ->
        let v = key.(ek) in
        if t.high_water = Value.Null || ahead cfg v t.high_water then begin
          (* A fresh epoch: everything in the table belongs to closed
             epochs (modulo the band, which the HFTA absorbs). Announce
             the advance, so the HFTA can close those epochs now rather
             than when the next epoch's first partial reaches it. *)
          if t.high_water <> Value.Null then begin
            flush_all t ~emit;
            match cfg.epoch_out with
            | Some out_field ->
                let bound =
                  Aggregate.behind_threshold ~direction:cfg.direction ~band:cfg.band v
                in
                emit (Item.Punct [ (out_field, bound) ])
            | None -> ()
          end;
          t.high_water <- v
        end
    | None -> ());
    let idx = Value.hash_array key land ((1 lsl cfg.table_bits) - 1) in
    let slot =
      match t.slots.(idx) with
      | Some s when Value.equal_array s.key key -> s
      | Some victim ->
          Metrics.Counter.incr t.evictions;
          emit_slot t victim ~emit;
          let s = { key = Array.copy key; accs = Array.map (fun sp -> Agg_fn.init sp.Agg_fn.kind) cfg.aggs } in
          t.slots.(idx) <- Some s;
          s
      | None ->
          let s = { key = Array.copy key; accs = Array.map (fun sp -> Agg_fn.init sp.Agg_fn.kind) cfg.aggs } in
          t.slots.(idx) <- Some s;
          t.occupied <- t.occupied + 1;
          s
    in
    Array.iteri
      (fun i (spec : Agg_fn.spec) ->
        let arg = match spec.Agg_fn.arg with None -> None | Some f -> f values in
        Agg_fn.step slot.accs.(i) arg)
      cfg.aggs
  end
  end

let op t =
  let on_item ~input:_ item ~emit =
    match item with
    | Item.Tuple values -> on_tuple t values ~emit
    | Item.Punct bounds -> (
        (* Flush so the bound is honoured; with a punctuation
           translator, the source's firm bound then maps to an epoch
           bound on the output. Without one it stays swallowed. *)
        flush_all t ~emit;
        match (t.cfg.punct_in, t.cfg.epoch_out) with
        | Some (in_field, translate), Some out_field -> (
            match List.assoc_opt in_field bounds with
            | Some v -> (
                match translate v with
                | Some epoch_bound -> emit (Item.Punct [ (out_field, epoch_bound) ])
                | None -> ())
            | None -> ())
        | _ -> ())
    | Item.Flush ->
        flush_all t ~emit;
        emit Item.Flush
    | Item.Eof ->
        if not t.done_ then begin
          t.done_ <- true;
          flush_all t ~emit;
          emit Item.Eof
        end
    | (Item.Error _ | Item.Gap _) as ctrl -> emit ctrl
  in
  (* The paper's cheap path: one dispatch folds a whole run of tuples
     into the direct-mapped table. *)
  let on_batch ~input batch ~emit =
    let tuples = Batch.tuples batch in
    for i = 0 to Array.length tuples - 1 do
      on_tuple t tuples.(i) ~emit
    done;
    match Batch.ctrl batch with Some ctrl -> on_item ~input ctrl ~emit | None -> ()
  in
  {
    Operator.on_item;
    on_batch = Some on_batch;
    blocked_input = (fun () -> None);
    buffered = (fun () -> t.occupied);
  reset = None;
  }

let evictions t = Metrics.Counter.get t.evictions
let emitted t = Metrics.Counter.get t.emitted

let register_metrics t reg ~prefix =
  Metrics.attach_counter reg (prefix ^ ".evictions") t.evictions;
  Metrics.attach_counter reg (prefix ^ ".emitted") t.emitted;
  Metrics.attach_gauge_fn reg (prefix ^ ".occupied") (fun () -> float_of_int t.occupied);
  Metrics.attach_gauge_fn reg (prefix ^ ".slots") (fun () ->
      float_of_int (Array.length t.slots));
  (* collision rate: fraction of input tuples that hit an occupied slot
     holding another group's key -- the paper's "table too small" signal *)
  Metrics.attach_gauge_fn reg (prefix ^ ".eviction_rate") (fun () ->
      let ev = Metrics.Counter.get t.evictions in
      let em = Metrics.Counter.get t.emitted in
      if em = 0 then 0.0 else float_of_int ev /. float_of_int em)
