type config = {
  pred : (Value.t array -> bool) option;
  keys : (Value.t array -> Value.t) array;
  epoch_key : int option;
  direction : Order_prop.direction;
  band : float;
  aggs : Agg_fn.spec array;
  assemble : Value.t array -> Value.t array;
  having : (Value.t array -> bool) option;
  epoch_out : int option;
  punct_in : (int * (Value.t -> Value.t option)) option;
}

module Metrics = Gigascope_obs.Metrics

(* The groups of one open epoch: a {!Group_table} probed linearly from
   [Value.hash_array key], kept at most half full, with each slot's hash
   and the occupied slots in insertion order beside it. A closed
   epoch's bucket is emptied through [live] and kept for a later epoch,
   so its table is not allocated again. *)
type bucket = {
  mutable epoch : Value.t;  (** the first group's epoch key value *)
  mutable tbl : Group_table.t;
  mutable hashes : int array;
  mutable live : int array;  (** occupied slots, [n] of them *)
  mutable n : int;
}

type t = {
  cfg : config;
  epoch_idx : int;  (** [epoch_key], or -1 *)
  key : Group_table.key;  (** the tuple being folded *)
  virt : Value.t array;  (** the emitted group's keys and finals, reused *)
  mutable buckets : bucket array;
      (** open epochs in stream order, oldest first, [n_open] of them;
          without an epoch key, one bucket holds every group *)
  mutable n_open : int;
  mutable spare : bucket list;  (** emptied buckets, for reuse *)
  mutable groups : int;
  mutable high_water : Value.t;  (** extremum of epoch values seen; Null before any *)
  flushes : Metrics.Counter.t;
  flush_ns : Metrics.Histogram.t;
  mutable done_ : bool;
}

(* Stream order of epoch values: [stream_cmp a b > 0] when [a] comes
   after [b] in the input's direction. *)
let stream_cmp cfg a b =
  match cfg.direction with
  | Order_prop.Asc -> Value.compare a b
  | Order_prop.Desc -> Value.compare b a

(* [ahead a b] : does epoch value [a] come after [b] in stream direction? *)
let ahead cfg a b = stream_cmp cfg a b > 0

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

let make cfg =
  let n = Array.length cfg.keys in
  {
    cfg;
    epoch_idx = Option.value cfg.epoch_key ~default:(-1);
    key = Group_table.make_key n;
    virt = Array.make (n + Array.length cfg.aggs) Value.Null;
    buckets = [||];
    n_open = 0;
    spare = [];
    groups = 0;
    high_water = Value.Null;
    flushes = Metrics.Counter.make ();
    (* one sample per flush, so a small reservoir holds many epochs *)
    flush_ns = Metrics.Histogram.make ~reservoir:256 ();
    done_ = false;
  }

let first_slots = 16

let new_bucket t epoch =
  match t.spare with
  | b :: rest ->
      t.spare <- rest;
      b.epoch <- epoch;
      b
  | [] ->
      {
        epoch;
        tbl = Group_table.create ~keys:(Array.length t.cfg.keys) ~slots:first_slots;
        hashes = Array.make first_slots 0;
        live = Array.make (first_slots / 2) 0;
        n = 0;
      }

(* The bucket of epoch value [v], opened in stream order when new. The
   newest epoch is checked first, so ordered input finds its bucket in
   one comparison however many epochs are open. *)
let bucket_for t v =
  let n = t.n_open in
  if n > 0 && Value.equal t.buckets.(n - 1).epoch v then t.buckets.(n - 1)
  else begin
    (* first open bucket not behind [v] *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if stream_cmp t.cfg t.buckets.(mid).epoch v < 0 then lo := mid + 1 else hi := mid
    done;
    let i = !lo in
    if i < n && Value.equal t.buckets.(i).epoch v then t.buckets.(i)
    else begin
      let b = new_bucket t v in
      if n = Array.length t.buckets then begin
        let grown = Array.make (max 4 (2 * n)) b in
        Array.blit t.buckets 0 grown 0 n;
        t.buckets <- grown
      end;
      Array.blit t.buckets i t.buckets (i + 1) (n - i);
      t.buckets.(i) <- b;
      t.n_open <- n + 1;
      b
    end
  end

(* Double a bucket's table, re-placing its groups by their kept hashes. *)
let grow t b =
  let slots = 2 * Group_table.slots b.tbl in
  let mask = slots - 1 in
  let tbl = Group_table.create ~keys:(Array.length t.cfg.keys) ~slots in
  let hashes = Array.make slots 0 in
  let live = Array.make (slots / 2) 0 in
  for j = 0 to b.n - 1 do
    let i = b.live.(j) in
    let h = b.hashes.(i) in
    let idx = ref (h land mask) in
    while Group_table.occupied tbl !idx do
      idx := (!idx + 1) land mask
    done;
    Group_table.move ~src:b.tbl i ~dst:tbl !idx;
    hashes.(!idx) <- h;
    live.(j) <- !idx
  done;
  b.tbl <- tbl;
  b.hashes <- hashes;
  b.live <- live

(* The slot of the tuple's group in [b], or [-1 - idx] when the group
   is new and slot [idx] is free for it. A slot matches when its kept
   [Value.hash_array] and its key ([Value.equal]) both do. *)
let probe b key =
  let h = Group_table.hash key in
  let mask = Group_table.slots b.tbl - 1 in
  let idx = ref (h land mask) in
  while
    Group_table.occupied b.tbl !idx
    && not (b.hashes.(!idx) = h && Group_table.matches b.tbl !idx key)
  do
    idx := (!idx + 1) land mask
  done;
  if Group_table.occupied b.tbl !idx then !idx else - !idx - 1

(* The accumulators of the tuple's group in [b], a new group's from
   zero. *)
let group_accs t b =
  let found = probe b t.key in
  if found >= 0 then Group_table.accs b.tbl found
  else begin
    let idx =
      if 2 * (b.n + 1) <= Group_table.slots b.tbl then -found - 1
      else begin
        grow t b;
        -probe b t.key - 1
      end
    in
    b.hashes.(idx) <- Group_table.hash t.key;
    b.live.(b.n) <- idx;
    b.n <- b.n + 1;
    t.groups <- t.groups + 1;
    Group_table.insert b.tbl idx t.key t.cfg.aggs
  end

let emit_group t tbl idx ~emit =
  Group_table.fill tbl idx t.virt;
  let keep = match t.cfg.having with None -> true | Some h -> h t.virt in
  if keep then begin
    Metrics.Counter.incr t.flushes;
    ignore (emit (Item.Tuple (t.cfg.assemble t.virt)))
  end

(* Emit a bucket's groups in polymorphic [compare] order of their keys
   (every output of the engine has that order within an epoch, and the
   byte-identity differentials hold it), then empty the bucket for
   reuse. *)
let close_bucket t b ~emit =
  Array.iter
    (fun idx ->
      Group_table.release b.tbl idx;
      emit_group t b.tbl idx ~emit)
    (Group_table.sort b.tbl b.live b.n);
  t.groups <- t.groups - b.n;
  b.n <- 0;
  t.spare <- b :: t.spare

(* Close and emit every open epoch strictly behind [threshold], whole
   and oldest first; [threshold = None] closes everything. The open
   epochs are in stream order, so the closed ones are a prefix and an
   open one is never visited. *)
let flush_behind t ?threshold ~emit () =
  let closes i =
    i < t.n_open
    &&
    match threshold with
    | None -> true
    | Some thr -> t.epoch_idx >= 0 && ahead t.cfg thr t.buckets.(i).epoch
  in
  if closes 0 then begin
    let t0 = Gigascope_obs.Clock.now_ns () in
    let k = ref 0 in
    while closes !k do
      close_bucket t t.buckets.(!k) ~emit;
      incr k
    done;
    let k = !k in
    Array.blit t.buckets k t.buckets 0 (t.n_open - k);
    t.n_open <- t.n_open - k;
    Metrics.Histogram.observe t.flush_ns (Gigascope_obs.Clock.now_ns () -. t0)
  end

let on_tuple t values ~emit =
  let cfg = t.cfg in
  if match cfg.pred with Some p -> p values | None -> true then
    match Group_table.read_key t.key cfg.keys values ~epoch:t.epoch_idx with
    | exception Value.No_value -> ()
    | v ->
        if t.epoch_idx >= 0 then begin
          let advanced = t.high_water == Value.Null || ahead cfg v t.high_water in
          if advanced then begin
            t.high_water <- v;
            flush_behind t
              ~threshold:(behind_threshold ~direction:cfg.direction ~band:cfg.band v)
              ~emit ()
          end
        end;
        let accs = group_accs t (bucket_for t v) in
        for i = 0 to Array.length accs - 1 do
          Agg_fn.step_tuple cfg.aggs.(i) accs.(i) values
        done

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
    buffered = (fun () -> t.groups);
    reset = None;
  }

let open_groups t = t.groups
let flushes t = Metrics.Counter.get t.flushes

let register_metrics t reg ~prefix =
  Metrics.attach_counter reg (prefix ^ ".flushes") t.flushes;
  Metrics.attach_histogram reg (prefix ^ ".flush_ns") t.flush_ns;
  Metrics.attach_gauge_fn reg (prefix ^ ".open_groups") (fun () -> float_of_int t.groups)
