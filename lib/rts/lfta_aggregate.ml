type config = {
  table_bits : int;
  pred : (Value.t array -> bool) option;
  keys : (Value.t array -> Value.t) array;
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

module Metrics = Gigascope_obs.Metrics

(* The table is stored by column, as the paper's generated C would lay it
   out: per group-key column an [int array] payload and one tag byte per
   slot, plus one occupancy byte and one accumulator array per slot. Int
   and Ip keys (the packet fields and their arithmetic) live unboxed; a
   key of any other kind goes to a [Value.t array] created the first time
   such a key appears in that column. Nothing is allocated until the
   first tuple arrives. *)
let tag_null = '\000'
let tag_int = '\001'
let tag_ip = '\002'
let tag_boxed = '\003'

type column = {
  ints : int array;  (** Int/Ip payload; 0 for other tags *)
  tags : Bytes.t;
  mutable boxed : Value.t array;  (** [[||]] until a boxed key appears *)
}

type t = {
  cfg : config;
  mask : int;
  (* the table, allocated at the first tuple *)
  mutable cols : column array;
  mutable used : Bytes.t;  (** '\001' marks an occupied slot *)
  mutable accs : Agg_fn.acc array array;  (** per slot; [[||]] until first used *)
  (* the tuple being folded, decoded as a column entry *)
  key_ints : int array;
  key_tags : Bytes.t;
  key_boxed : Value.t array;
  mutable key_hash : int;
  mutable occupied : int;
  mutable high_water : Value.t;
  evictions : Metrics.Counter.t;
  emitted : Metrics.Counter.t;
  mutable done_ : bool;
}

let make cfg =
  if cfg.table_bits < 0 || cfg.table_bits > 24 then
    invalid_arg "Lfta_aggregate.make: table_bits out of range";
  let n = Array.length cfg.keys in
  {
    cfg;
    mask = (1 lsl cfg.table_bits) - 1;
    cols = [||];
    used = Bytes.empty;
    accs = [||];
    key_ints = Array.make n 0;
    key_tags = Bytes.make n tag_null;
    key_boxed = Array.make n Value.Null;
    key_hash = 0;
    occupied = 0;
    high_water = Value.Null;
    evictions = Metrics.Counter.make ();
    emitted = Metrics.Counter.make ();
    done_ = false;
  }

let allocate t =
  let slots = t.mask + 1 in
  t.cols <-
    Array.map
      (fun _ -> { ints = Array.make slots 0; tags = Bytes.make slots tag_null; boxed = [||] })
      t.cfg.keys;
  t.used <- Bytes.make slots '\000';
  t.accs <- Array.make slots [||]

let ahead cfg a b =
  match cfg.direction with
  | Order_prop.Asc -> Value.compare a b > 0
  | Order_prop.Desc -> Value.compare a b < 0

let boxed_value tag ints boxed i =
  if tag = tag_int then Value.Int ints.(i)
  else if tag = tag_ip then Value.Ip ints.(i)
  else if tag = tag_boxed then boxed.(i)
  else Value.Null

let slot_value c idx = boxed_value (Bytes.unsafe_get c.tags idx) c.ints c.boxed idx
let key_value t i = boxed_value (Bytes.unsafe_get t.key_tags i) t.key_ints t.key_boxed i

(* Evaluate the group keys into the key_* entry and their
   [Value.hash_array] into [key_hash]; return the epoch key's value.
   Raises [Value.No_value] when a key has none. *)
let read_key t values =
  let keys = t.cfg.keys in
  let ek = match t.cfg.epoch_key with Some ek -> ek | None -> -1 in
  let h = ref 0 and epoch = ref Value.Null in
  for i = 0 to Array.length keys - 1 do
    let v = keys.(i) values in
    h := Value.hash_combine !h v;
    if i = ek then epoch := v;
    match v with
    | Value.Int x ->
        Bytes.unsafe_set t.key_tags i tag_int;
        t.key_ints.(i) <- x
    | Value.Ip x ->
        Bytes.unsafe_set t.key_tags i tag_ip;
        t.key_ints.(i) <- x
    | Value.Null ->
        Bytes.unsafe_set t.key_tags i tag_null;
        t.key_ints.(i) <- 0
    | _ ->
        Bytes.unsafe_set t.key_tags i tag_boxed;
        t.key_ints.(i) <- 0;
        t.key_boxed.(i) <- v
  done;
  t.key_hash <- !h land max_int;
  !epoch

(* Key equality is [Value.equal]'s: unboxed entries of one tag compare by
   payload, Int/Ip/Null entries of different tags never match, and a
   boxed entry on either side (a Float can equal an Int) compares the two
   values. *)
let column_matches t i idx =
  let c = t.cols.(i) in
  let kt = Bytes.unsafe_get t.key_tags i and st = Bytes.unsafe_get c.tags idx in
  if kt = st && kt <> tag_boxed then t.key_ints.(i) = c.ints.(idx)
  else if kt = tag_boxed || st = tag_boxed then Value.equal (key_value t i) (slot_value c idx)
  else false

let slot_matches t idx =
  let n = Array.length t.cols in
  let i = ref 0 in
  while !i < n && column_matches t !i idx do
    incr i
  done;
  !i = n

let store_key t idx =
  let slots = t.mask + 1 in
  for i = 0 to Array.length t.cols - 1 do
    let c = t.cols.(i) in
    let tag = Bytes.unsafe_get t.key_tags i in
    Bytes.unsafe_set c.tags idx tag;
    c.ints.(idx) <- t.key_ints.(i);
    if tag = tag_boxed then begin
      if Array.length c.boxed = 0 then c.boxed <- Array.make slots Value.Null;
      c.boxed.(idx) <- t.key_boxed.(i)
    end
    else if Array.length c.boxed > 0 then c.boxed.(idx) <- Value.Null
  done

(* A slot's accumulators, from zero: created at the slot's first use,
   reset in place after that. *)
let fresh_accs t idx =
  let accs = t.accs.(idx) in
  if Array.length accs = 0 then begin
    let accs = Array.map (fun sp -> Agg_fn.init sp.Agg_fn.kind) t.cfg.aggs in
    t.accs.(idx) <- accs;
    accs
  end
  else begin
    Array.iter Agg_fn.reset accs;
    accs
  end

let emit_slot t idx ~emit =
  let keys = Array.map (fun c -> slot_value c idx) t.cols in
  let aggs = Array.map Agg_fn.final t.accs.(idx) in
  let out = t.cfg.assemble ~keys ~aggs in
  Metrics.Counter.incr t.emitted;
  ignore (emit (Item.Tuple out))

let flush_all t ~emit =
  (* Slot order is deterministic and cheap; the downstream HFTA re-groups,
     so no ordering promise is needed beyond bandedness. *)
  for idx = 0 to Bytes.length t.used - 1 do
    if Bytes.unsafe_get t.used idx <> '\000' then begin
      Bytes.unsafe_set t.used idx '\000';
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
    match read_key t values with
    | exception Value.No_value -> ()
    | epoch ->
        if Bytes.length t.used = 0 then allocate t;
        (match cfg.epoch_key with Some _ -> advance_epoch t epoch ~emit | None -> ());
        let idx = t.key_hash land t.mask in
        let accs =
          if Bytes.unsafe_get t.used idx = '\000' then begin
            Bytes.unsafe_set t.used idx '\001';
            t.occupied <- t.occupied + 1;
            store_key t idx;
            fresh_accs t idx
          end
          else if slot_matches t idx then t.accs.(idx)
          else begin
            Metrics.Counter.incr t.evictions;
            emit_slot t idx ~emit;
            store_key t idx;
            fresh_accs t idx
          end
        in
        for i = 0 to Array.length accs - 1 do
          Agg_fn.step_tuple cfg.aggs.(i) accs.(i) values
        done

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
