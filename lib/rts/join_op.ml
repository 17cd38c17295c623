type output_mode = Banded_output | Ordered_output

type config = {
  output_mode : output_mode;
  left_idx : int;
  right_idx : int;
  lo : float;
  hi : float;
  pred : Value.t array -> Value.t array -> bool;
  assemble : Value.t array -> Value.t array -> Value.t array option;
  left_out : int option;
  right_out : int option;
}

type side_state = {
  buffer : Value.t array Queue.t;  (** in arrival (hence timestamp) order *)
  mutable bound : float;  (** low bound on future ordered values *)
  mutable eof : bool;
}

module Metrics = Gigascope_obs.Metrics

type t = {
  cfg : config;
  left : side_state;
  right : side_state;
  held : Value.t array Gigascope_util.Minheap.t;
      (** Ordered_output: matches waiting for the watermark, keyed by the
          left ordered value *)
  mutable high_water : int;
  mutable done_ : bool;
}

let make cfg =
  if cfg.lo > cfg.hi then invalid_arg "Join_op.make: empty window (lo > hi)";
  {
    cfg;
    left = { buffer = Queue.create (); bound = neg_infinity; eof = false };
    right = { buffer = Queue.create (); bound = neg_infinity; eof = false };
    held = Gigascope_util.Minheap.create ();
    high_water = 0;
    done_ = false;
  }

let buffered t =
  Queue.length t.left.buffer + Queue.length t.right.buffer
  + Gigascope_util.Minheap.length t.held

let ts_of values idx =
  match Value.to_float values.(idx) with
  | Some f -> f
  | None -> nan (* non-numeric ordered attr: window never matches *)

(* Saturating window arithmetic. With an infinite window bound
   (windowless join admitted under --allow-unbounded), an EOF side's
   infinite bound would otherwise combine into inf + -inf = NaN, and a
   NaN watermark never releases held pairs — silent output loss. A
   bound that is already infinite stays infinite. *)
let sat_add a b = if a = infinity || b = infinity then infinity else a +. b
let sat_sub a b = if a = infinity then infinity else a -. b

(* Purge buffered tuples that no future opposite tuple can reach.
   A left tuple at lt joins rights in [lt - hi, lt - lo]; future rights are
   >= right.bound, so lt is dead once lt < right.bound + lo. Symmetric for
   rights: dead once rt < left.bound - hi. EOF makes the bound infinite. *)
let purge t =
  let left_bound = if t.left.eof then infinity else t.left.bound in
  let right_bound = if t.right.eof then infinity else t.right.bound in
  let drop_while q dead =
    let continue = ref true in
    while !continue && not (Queue.is_empty q) do
      if dead (Queue.peek q) then ignore (Queue.pop q) else continue := false
    done
  in
  drop_while t.left.buffer (fun v -> ts_of v t.cfg.left_idx < sat_add right_bound t.cfg.lo);
  drop_while t.right.buffer (fun v -> ts_of v t.cfg.right_idx < sat_sub left_bound t.cfg.hi)

(* No future output pair can carry a left ordered value below this: future
   left arrivals are >= left.bound, and a buffered left tuple matching a
   future right must be >= right.bound + lo. *)
let output_watermark t =
  let lb = if t.left.eof then infinity else t.left.bound in
  let rb = if t.right.eof then infinity else t.right.bound in
  Float.min lb (sat_add rb t.cfg.lo)

let compare_rows a b =
  let n = Array.length a and m = Array.length b in
  let rec go i =
    if i >= n || i >= m then compare n m
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Strictly below the watermark, as a whole batch, content-sorted.
   Both points matter for determinism: the heap breaks equal-priority
   ties by insertion order, which depends on probe interleaving, and a
   non-strict gate can release part of an equal-key group now and the
   rest after more input arrives — at a split point that also depends on
   interleaving. Strict release keeps every equal-key group intact until
   the watermark passes it, and the content sort fixes its internal
   order. *)
let release t ~emit =
  match t.cfg.output_mode with
  | Banded_output -> ()
  | Ordered_output ->
      let wm = output_watermark t in
      let batch = ref [] in
      let continue = ref true in
      while !continue do
        match Gigascope_util.Minheap.min t.held with
        | Some (key, _) when key < wm -> (
            match Gigascope_util.Minheap.pop t.held with
            | Some entry -> batch := entry :: !batch
            | None -> continue := false)
        | _ -> continue := false
      done;
      if !batch <> [] then
        List.iter
          (fun (_, out) -> ignore (emit (Item.Tuple out)))
          (List.sort
             (fun (ka, a) (kb, b) ->
               let c = Float.compare ka kb in
               if c <> 0 then c else compare_rows a b)
             !batch)

let produce t ~left_ts out ~emit =
  match t.cfg.output_mode with
  | Banded_output -> ignore (emit (Item.Tuple out))
  | Ordered_output -> Gigascope_util.Minheap.add t.held ~prio:left_ts out

let probe t ~from_left values ~emit =
  let cfg = t.cfg in
  if from_left then begin
    let lt = ts_of values cfg.left_idx in
    Queue.iter
      (fun right ->
        let rt = ts_of right cfg.right_idx in
        let d = lt -. rt in
        if d >= cfg.lo && d <= cfg.hi && cfg.pred values right then
          match cfg.assemble values right with
          | Some out -> produce t ~left_ts:lt out ~emit
          | None -> ())
      t.right.buffer
  end
  else begin
    let rt = ts_of values cfg.right_idx in
    Queue.iter
      (fun left ->
        let lt = ts_of left cfg.left_idx in
        let d = lt -. rt in
        if d >= cfg.lo && d <= cfg.hi && cfg.pred left values then
          match cfg.assemble left values with
          | Some out -> produce t ~left_ts:lt out ~emit
          | None -> ())
      t.left.buffer
  end

let emit_punct t ~emit =
  (* The raw side bounds are unsound here: a held Ordered_output pair
     whose left key trails left.bound would be emitted after a punctuation
     claiming that bound, and even in Banded_output a future pair's right
     value can be as low as left.bound - hi. What is truly final is the
     output watermark of each projected side. *)
  let lb = if t.left.eof then infinity else t.left.bound in
  let rb = if t.right.eof then infinity else t.right.bound in
  let left_wm = Float.min lb (sat_add rb t.cfg.lo) in
  let right_wm = Float.min rb (sat_sub lb t.cfg.hi) in
  let bounds =
    List.filter_map Fun.id
      [
        Option.map (fun out -> (out, Value.Float left_wm)) t.cfg.left_out;
        Option.map (fun out -> (out, Value.Float right_wm)) t.cfg.right_out;
      ]
  in
  let finite = List.filter (fun (_, v) -> match v with Value.Float f -> Float.is_finite f | _ -> true) bounds in
  if finite <> [] then emit (Item.Punct finite)

let op t =
  let cfg = t.cfg in
  (* State only shrinks outside [on_tuple] (purges, releases), so the
     high-water mark is taken there. *)
  let on_tuple ~input values ~emit =
    let from_left = input = 0 in
    let side = if from_left then t.left else t.right in
    let ts = ts_of values (if from_left then cfg.left_idx else cfg.right_idx) in
    if ts > side.bound then side.bound <- ts;
    probe t ~from_left values ~emit;
    Queue.push values side.buffer;
    purge t;
    let b = buffered t in
    if b > t.high_water then t.high_water <- b
  in
  (* One Ordered_output release per batch: the watermark only grows,
     every new pair's key is at or above it, and release takes strictly
     below it, so per-tuple releases would occupy disjoint ascending key
     ranges whose concatenation is this one release. *)
  let on_batch_end ~emit = release t ~emit in
  let on_ctrl ~input item ~emit =
    let side, idx = if input = 0 then (t.left, cfg.left_idx) else (t.right, cfg.right_idx) in
    (match item with
    | Item.Punct bounds -> (
        match List.assoc_opt idx bounds with
        | Some v -> (
            match Value.to_float v with
            | Some f ->
                if f > side.bound then side.bound <- f;
                purge t;
                (* Release before punctuating: held pairs below the new
                   watermark must leave ahead of the punctuation that
                   declares them final. *)
                release t ~emit;
                emit_punct t ~emit
            | None -> ())
        | None -> ())
    | Item.Tuple _ | Item.Flush -> ()
    | Item.Eof ->
        side.eof <- true;
        purge t
    | (Item.Error _ | Item.Gap _) as ctrl -> emit ctrl);
    release t ~emit;
    if (not t.done_) && t.left.eof && t.right.eof then begin
      t.done_ <- true;
      release t ~emit;
      emit Item.Eof
    end
  in
  let blocked_input () =
    let starving st = Queue.is_empty st.buffer && not st.eof in
    if (not (Queue.is_empty t.left.buffer)) && starving t.right then Some 1
    else if (not (Queue.is_empty t.right.buffer)) && starving t.left then Some 0
    else None
  in
  {
    Operator.on_tuple;
    on_batch_end;
    on_ctrl;
    blocked_input;
    buffered = (fun () -> buffered t);
    reset = None;
  }

let high_water t = t.high_water

let register_metrics t reg ~prefix =
  Metrics.attach_gauge_fn reg (prefix ^ ".window_left") (fun () ->
      float_of_int (Queue.length t.left.buffer));
  Metrics.attach_gauge_fn reg (prefix ^ ".window_right") (fun () ->
      float_of_int (Queue.length t.right.buffer));
  Metrics.attach_gauge_fn reg (prefix ^ ".held") (fun () ->
      float_of_int (Gigascope_util.Minheap.length t.held));
  Metrics.attach_gauge_fn reg (prefix ^ ".high_water") (fun () -> float_of_int t.high_water)
