type config = {
  table_bits : int;
  pred : (Value.t array -> bool) option;
  keys : (Value.t array -> Value.t) array;
  epoch_key : int option;
  direction : Order_prop.direction;
  band : float;
  aggs : Agg_fn.spec array;
  assemble : Value.t array -> Value.t array;
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

module Metrics = Gigascope_obs.Metrics

(* The table is a {!Group_table} of [2^table_bits] slots, its key and
   accumulator columns allocated at the first tuple, so an LFTA that
   never sees one adds nothing to installation. A group lands in slot
   [Value.hash_array key land mask] and evicts the group it collides
   with. *)
type t = {
  cfg : config;
  mask : int;
  epoch_idx : int;  (** [epoch_key], or -1 *)
  mutable tbl : Group_table.t;  (** [Group_table.empty] until the first tuple *)
  key : Group_table.key;  (** the tuple being folded *)
  virt : Value.t array;  (** the emitted group's keys and finals, reused *)
  mutable occupied : int;
  mutable high_water : Value.t;
  evictions : Metrics.Counter.t;
  emitted : Metrics.Counter.t;
  mutable done_ : bool;
}

let max_table_bits = 24

let make cfg =
  if cfg.table_bits < 0 || cfg.table_bits > max_table_bits then
    invalid_arg "Lfta_aggregate.make: table_bits out of range";
  let n = Array.length cfg.keys in
  {
    cfg;
    mask = (1 lsl cfg.table_bits) - 1;
    epoch_idx = Option.value cfg.epoch_key ~default:(-1);
    tbl = Group_table.empty;
    key = Group_table.make_key n;
    virt = Array.make (n + Array.length cfg.aggs) Value.Null;
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

let emit_slot t idx ~emit =
  Group_table.fill t.tbl idx t.virt;
  let out = t.cfg.assemble t.virt in
  Metrics.Counter.incr t.emitted;
  ignore (emit (Item.Tuple out))

let flush_all t ~emit =
  (* Slot order is deterministic and cheap; the downstream HFTA re-groups,
     so no ordering promise is needed beyond bandedness. *)
  for idx = 0 to Group_table.slots t.tbl - 1 do
    if Group_table.occupied t.tbl idx then begin
      Group_table.release t.tbl idx;
      t.occupied <- t.occupied - 1;
      emit_slot t idx ~emit
    end
  done

(* A fresh epoch: everything in the table belongs to closed epochs
   (modulo the band, which the HFTA absorbs). Announce the advance, so
   the HFTA can close those epochs now rather than when the next epoch's
   first partial reaches it. *)
let advance_epoch t v ~emit =
  let cfg = t.cfg in
  if t.high_water == Value.Null || ahead cfg v t.high_water then begin
    if t.high_water != Value.Null then begin
      flush_all t ~emit;
      match cfg.epoch_out with
      | Some out_field ->
          let bound = Aggregate.behind_threshold ~direction:cfg.direction ~band:cfg.band v in
          emit (Item.Punct [ (out_field, bound) ])
      | None -> ()
    end;
    t.high_water <- v
  end

let on_tuple t values ~emit =
  let cfg = t.cfg in
  if match cfg.pred with Some p -> p values | None -> true then
    match Group_table.read_key t.key cfg.keys values ~epoch:t.epoch_idx with
    | exception Value.No_value -> ()
    | epoch ->
        if Group_table.slots t.tbl = 0 then
          t.tbl <-
            Group_table.create ~keys:(Array.length cfg.keys) ~aggs:cfg.aggs ~slots:(t.mask + 1);
        if t.epoch_idx >= 0 then advance_epoch t epoch ~emit;
        let tbl = t.tbl in
        let idx = Group_table.hash t.key land t.mask in
        if not (Group_table.occupied tbl idx) then begin
          t.occupied <- t.occupied + 1;
          Group_table.insert tbl idx t.key
        end
        else if not (Group_table.matches tbl idx t.key) then begin
          Metrics.Counter.incr t.evictions;
          emit_slot t idx ~emit;
          Group_table.insert tbl idx t.key
        end;
        Group_table.step tbl idx values

let op t =
  let on_ctrl ~input:_ item ~emit =
    match item with
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
    | Item.Tuple _ -> ()
  in
  {
    Operator.on_tuple = (fun ~input:_ values ~emit -> on_tuple t values ~emit);
    on_batch_end = (fun ~emit:_ -> ());
    on_ctrl;
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
  Metrics.attach_gauge_fn reg (prefix ^ ".slots") (fun () -> float_of_int (t.mask + 1));
  (* collision rate: fraction of input tuples that hit an occupied slot
     holding another group's key -- the paper's "table too small" signal *)
  Metrics.attach_gauge_fn reg (prefix ^ ".eviction_rate") (fun () ->
      let ev = Metrics.Counter.get t.evictions in
      let em = Metrics.Counter.get t.emitted in
      if em = 0 then 0.0 else float_of_int ev /. float_of_int em)
