type config = { n_inputs : int; ordered_idx : int; direction : Order_prop.direction }

type input_state = {
  queue : Value.t array Queue.t;
  mutable bound : Value.t;  (** low bound from puncts/tuples; Null = none yet *)
  mutable eof : bool;
}

module Metrics = Gigascope_obs.Metrics

type t = {
  cfg : config;
  inputs : input_state array;
  (* Forwarded ordering fields: fields other than [ordered_idx] that are
     monotone in every input stream (identical schemas make that one
     check) and whose low bounds the merge therefore re-publishes, so a
     downstream window/epoch operator keyed on such a field is not
     starved of punctuation just because a merge sits in between. The
     array is [(field, direction)]; [fbounds.(i).(k)] is input [i]'s low
     bound for forwarded field [k] (Null = none yet). *)
  forward : (int * Order_prop.direction) array;
  fbounds : Value.t array array;
  mutable high_water : int;
  reorder_lag : Metrics.Histogram.t;
      (** tuples still buffered when one is released: how far the merge had
          to look across inputs to restore order *)
  mutable done_ : bool;
}

let make ?(forward = []) cfg =
  if cfg.n_inputs < 1 then invalid_arg "Merge_op.make: need at least one input";
  let forward =
    Array.of_list (List.filter (fun (f, _) -> f <> cfg.ordered_idx) forward)
  in
  {
    cfg;
    inputs = Array.init cfg.n_inputs (fun _ -> { queue = Queue.create (); bound = Value.Null; eof = false });
    forward;
    fbounds = Array.init cfg.n_inputs (fun _ -> Array.make (Array.length forward) Value.Null);
    high_water = 0;
    reorder_lag = Metrics.Histogram.make ();
    done_ = false;
  }

(* [cmp a b] in stream direction: negative when [a] comes first. *)
let cmp_dir dir a b =
  let c = Value.compare a b in
  match dir with Order_prop.Asc -> c | Desc -> -c

let cmp t a b = cmp_dir t.cfg.direction a b

let buffered t = Array.fold_left (fun acc st -> acc + Queue.length st.queue) 0 t.inputs

(* The earliest value input [i] could still deliver: the head of its queue
   if nonempty, else its punctuation bound; EOF means "never again". *)
let low_of t i =
  let st = t.inputs.(i) in
  if not (Queue.is_empty st.queue) then
    `Known (Queue.peek st.queue).(t.cfg.ordered_idx)
  else if st.eof then `Infinity
  else if st.bound = Value.Null then `Unknown
  else `Known st.bound

(* Same notion for forwarded field [k]: the queue head is the minimum
   among buffered and future tuples (the field is monotone within each
   input — the caller only forwards such fields), falling back to the
   tracked bound when the queue is empty. *)
let flow_of t i k =
  let st = t.inputs.(i) in
  let f, _ = t.forward.(k) in
  if not (Queue.is_empty st.queue) then `Known (Queue.peek st.queue).(f)
  else if st.eof then `Infinity
  else if t.fbounds.(i).(k) = Value.Null then `Unknown
  else `Known t.fbounds.(i).(k)

let advance_forward_tuple t input values =
  let fb = t.fbounds.(input) in
  Array.iteri
    (fun k (f, d) ->
      let v = values.(f) in
      if v <> Value.Null && (fb.(k) = Value.Null || cmp_dir d fb.(k) v < 0) then fb.(k) <- v)
    t.forward

let advance_forward_punct t input bounds =
  let fb = t.fbounds.(input) in
  Array.iteri
    (fun k (f, d) ->
      match List.assoc_opt f bounds with
      | Some v -> if fb.(k) = Value.Null || cmp_dir d fb.(k) v < 0 then fb.(k) <- v
      | None -> ())
    t.forward

let head t i = (Queue.peek t.inputs.(i).queue).(t.cfg.ordered_idx)

(* The input with the smallest head, ties to the lowest index; -1 when
   every queue is empty. *)
let smallest_head t =
  let best = ref (-1) in
  for i = 0 to Array.length t.inputs - 1 do
    if (not (Queue.is_empty t.inputs.(i).queue)) && (!best < 0 || cmp t (head t i) (head t !best) < 0)
    then best := i
  done;
  !best

(* Every other input has passed input [i]'s head: none can still
   deliver anything that comes before it. *)
let releasable t i =
  let v = head t i in
  let ok = ref true in
  for j = 0 to Array.length t.inputs - 1 do
    let st = t.inputs.(j) in
    if !ok && j <> i then
      ok :=
        if not (Queue.is_empty st.queue) then cmp t (head t j) v >= 0
        else st.eof || (match st.bound with Value.Null -> false | b -> cmp t b v >= 0)
  done;
  !ok

(* Emit while the smallest head is releasable. This runs after every
   tuple, so it allocates nothing but what it emits. *)
let rec drain t ~emit =
  let i = smallest_head t in
  if i >= 0 && releasable t i then begin
    Metrics.Histogram.observe t.reorder_lag (float_of_int (buffered t - 1));
    ignore (emit (Item.Tuple (Queue.pop t.inputs.(i).queue)));
    drain t ~emit
  end
  else if (not t.done_) && Array.for_all (fun st -> st.eof && Queue.is_empty st.queue) t.inputs
  then begin
    t.done_ <- true;
    emit Item.Eof
  end

let emit_punct t ~emit =
  (* The output's bound for a field is the min over inputs of their lows;
     an Unknown low on any input kills that field's bound (we cannot
     promise anything about the silent input's future). *)
  let combine ~dir low =
    let lows = Array.to_list (Array.init (Array.length t.inputs) low) in
    let known =
      List.filter_map (function `Known v -> Some v | `Infinity | `Unknown -> None) lows
    in
    let any_unknown = List.exists (function `Unknown -> true | _ -> false) lows in
    match known with
    | v :: rest when not any_unknown ->
        Some (List.fold_left (fun acc x -> if cmp_dir dir x acc < 0 then x else acc) v rest)
    | _ -> None
  in
  let bounds =
    let main =
      match combine ~dir:t.cfg.direction (low_of t) with
      | Some v -> [(t.cfg.ordered_idx, v)]
      | None -> []
    in
    let forwarded =
      List.concat
        (List.mapi
           (fun k (f, d) ->
             match combine ~dir:d (fun i -> flow_of t i k) with
             | Some v -> [(f, v)]
             | None -> [])
           (Array.to_list t.forward))
    in
    main @ forwarded
  in
  if bounds <> [] then emit (Item.Punct bounds)

let op t =
  (* Drain after every tuple, not once per batch: a tuple already queued
     behind a released head can win an equal-key tie against another
     input's head, which a drain before its arrival releases first. The
     output would then depend on how the input was batched. *)
  let on_tuple ~input values ~emit =
    let st = t.inputs.(input) in
    Queue.push values st.queue;
    let hw = buffered t in
    if hw > t.high_water then t.high_water <- hw;
    let v = values.(t.cfg.ordered_idx) in
    if st.bound = Value.Null || cmp t st.bound v < 0 then st.bound <- v;
    advance_forward_tuple t input values;
    drain t ~emit
  in
  let on_ctrl ~input item ~emit =
    let st = t.inputs.(input) in
    (match item with
    | Item.Punct bounds ->
        (match List.assoc_opt t.cfg.ordered_idx bounds with
        | Some v -> if st.bound = Value.Null || cmp t st.bound v < 0 then st.bound <- v
        | None -> ());
        advance_forward_punct t input bounds
    | Item.Tuple _ | Item.Flush -> ()
    | Item.Eof -> st.eof <- true
    | (Item.Error _ | Item.Gap _) as ctrl -> emit ctrl);
    drain t ~emit;
    match item with
    | Item.Punct _ -> emit_punct t ~emit
    | Item.Tuple _ | Item.Flush | Item.Eof | Item.Error _ | Item.Gap _ -> ()
  in
  let blocked_input () =
    (* Blocked: some input has data waiting, and another input's silence
       (empty queue, no EOF) is what holds it back. *)
    let someone_waiting = Array.exists (fun st -> not (Queue.is_empty st.queue)) t.inputs in
    if not someone_waiting then None
    else
      let n = Array.length t.inputs in
      let rec find i =
        if i = n then None
        else
          let st = t.inputs.(i) in
          if Queue.is_empty st.queue && not st.eof then Some i else find (i + 1)
      in
      find 0
  in
  {
    Operator.on_tuple;
    on_batch_end = (fun ~emit:_ -> ());
    on_ctrl;
    blocked_input;
    buffered = (fun () -> buffered t);
    reset = None;
  }

let high_water t = t.high_water

let register_metrics t reg ~prefix =
  Metrics.attach_gauge_fn reg (prefix ^ ".buffered") (fun () -> float_of_int (buffered t));
  Metrics.attach_gauge_fn reg (prefix ^ ".high_water") (fun () -> float_of_int t.high_water);
  Metrics.attach_histogram reg (prefix ^ ".reorder_lag") t.reorder_lag
