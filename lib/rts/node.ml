module Metrics = Gigascope_obs.Metrics
module Clock = Gigascope_obs.Clock

type kind = Source | Lfta | Hfta

type source = {
  pull : unit -> Item.t option;
  clock : unit -> (int * Value.t) list;
}

type subscriber =
  | Chan of Channel.t
  | Callback of (Item.t -> unit)
  | Batch_callback of (Batch.t -> unit)

type behavior = Src of source | Op of Operator.t

(* Time 1 callback in [cb_sample]: latency measurement costs two clock
   reads, too much for every tuple of a busy subscriber. *)
let cb_sample = 64

type t = {
  name : string;
  kind : kind;
  schema : Schema.t;
  behavior : behavior;
  mutable node_inputs : (t * Channel.t) array;
  mutable subscribers : subscriber list;
  tuples_in : Metrics.Counter.t;
  tuples_out : Metrics.Counter.t;
  service : Metrics.Histogram.t;
  cb_latency : Metrics.Histogram.t;
  mutable cb_seen : int;
  mutable source_done : bool;
  mutable eof_emitted : bool;
  (* Sharded execution: replicas of a query's LFTA→HFTA chain are
     tagged with their shard index so the parallel scheduler spreads
     them over worker domains even though their kind would otherwise
     pin them to the packet path. *)
  mutable shard_id : int option;
  (* Output batch builder: emitted tuples accumulate here until the
     batch size is reached or a control item seals the batch. Sealed
     batches are immutable and delivered once to every subscriber. *)
  mutable batch_size : int;
  mutable out_buf : Value.t array array;
  mutable out_n : int;
  (* Failure model: the supervisor rules on crashes caught in the step
     functions; a poisoned node has announced Error downstream and only
     drains (discards) its inputs from then on. An operator holds its
     Eof until every input has delivered one ([eofs_in] counts them),
     and announces what it discarded ([drained]: tuples plus the gaps
     it received, -1 once a gap of unknown size arrives) as one Gap
     before it. *)
  mutable supervisor : Supervisor.t option;
  mutable poisoned : bool;
  mutable eofs_in : int;
  mutable drained : int;
  (* Source-side load shedding: when set, a source discards pulled
     tuples while any subscriber channel sits at or above this fraction
     of its capacity, and announces the discard as an [Item.Gap] once
     pressure clears (or at EOF) — the paper's reported-drop stance. *)
  mutable shed_hw : float option;
  mutable shed_pending : int;
  shed_c : Metrics.Counter.t;
  (* State watchdog: the certified resident-state bound for this node's
     operator (infinity = uncertified) and the slack multiplier that
     arms enforcement (0 = disarmed, the default). A node found holding
     more than bound × slack at the end of a step announces the loss as
     an [Item.Gap] and submits itself to the supervisor as crashed —
     the certificate was violated, so the state (and the operator
     imputed ordering it was derived from) can no longer be trusted. *)
  mutable state_bound : float;
  mutable state_slack : float;
  mutable state_peak : int;
  watchdog_c : Metrics.Counter.t;
  (* Latency observability: sources stamp every [latency_sample]-th
     pulled tuple (0 = off) with the ingest clock; operators propagate
     the first stamp of a consumed batch onto their next emitted tuple
     (consume-once, so a stamp survives aggregation without
     multiplying). [pending_stamp] is the stamp waiting to ride the
     next emitted tuple; [out_stamps] is the builder's parallel stamp
     column, materialized into the sealed batch only when any slot is
     nonzero. Ingest→deliver latency is observed at terminal
     subscribers (callbacks — the app/egress boundary). *)
  mutable latency_sample : int;
  mutable lat_seen : int;
  mutable pending_stamp : int;
  mutable out_stamps : int array;
  mutable out_stamped : bool;
  mutable terminal : bool;
  deliver_latency : Metrics.Histogram.t;
  (* [emit t] as one closure, built once by make_op: the [emit] every
     operator hook receives. *)
  mutable op_emit : Operator.emit;
}

let make name kind schema behavior =
  {
    name;
    kind;
    schema;
    behavior;
    node_inputs = [||];
    subscribers = [];
    tuples_in = Metrics.Counter.make ();
    tuples_out = Metrics.Counter.make ();
    service = Metrics.Histogram.make ();
    cb_latency = Metrics.Histogram.make ();
    cb_seen = 0;
    source_done = false;
    eof_emitted = false;
    shard_id = None;
    batch_size = 1;
    out_buf = [||];
    out_n = 0;
    supervisor = None;
    poisoned = false;
    eofs_in = 0;
    drained = 0;
    shed_hw = None;
    shed_pending = 0;
    shed_c = Metrics.Counter.make ();
    state_bound = infinity;
    state_slack = 0.0;
    state_peak = 0;
    watchdog_c = Metrics.Counter.make ();
    latency_sample = 0;
    lat_seen = 0;
    pending_stamp = 0;
    out_stamps = [||];
    out_stamped = false;
    terminal = false;
    deliver_latency = Metrics.Histogram.make ();
    op_emit = ignore;
  }

let make_source ~name ~schema source = make name Source schema (Src source)

let name t = t.name
let set_supervisor t sup = t.supervisor <- sup
let set_shed t hw = t.shed_hw <- hw
let set_state_bound t b = t.state_bound <- (if b >= 0.0 then b else infinity)
let state_bound t = t.state_bound
let set_state_slack t s = t.state_slack <- max 0.0 s
let state_peak t = t.state_peak
let watchdog_trips t = Metrics.Counter.get t.watchdog_c
let set_latency_sample t n = t.latency_sample <- max 0 n
let latency_sample t = t.latency_sample
let shed_count t = Metrics.Counter.get t.shed_c
let kind t = t.kind
let schema t = t.schema
let shard t = t.shard_id
let set_shard t s = t.shard_id <- s

let connect ~downstream ~upstream ~capacity =
  let chan =
    Channel.create ~capacity ~name:(Printf.sprintf "%s->%s" upstream.name downstream.name) ()
  in
  downstream.node_inputs <- Array.append downstream.node_inputs [| (upstream, chan) |];
  upstream.subscribers <- upstream.subscribers @ [Chan chan]

let add_subscriber t sub =
  (match sub with
  | Callback _ | Batch_callback _ -> t.terminal <- true
  | Chan _ -> ());
  t.subscribers <- t.subscribers @ [sub]

let inputs t = t.node_inputs

let deliver t batch =
  (* Ingest→deliver latency: at a terminal node (one with an
     application/egress callback) every stamp in the batch closes its
     measurement here, just before the subscriber sees the tuple. *)
  (match Batch.stamps batch with
  | Some st when t.terminal ->
      let now = Clock.now_ns () in
      Array.iter
        (fun s -> if s <> 0 then Metrics.Histogram.observe t.deliver_latency (now -. float_of_int s))
        st
  | Some _ | None -> ());
  List.iter
    (fun sub ->
      match sub with
      | Chan chan -> ignore (Channel.push_batch chan batch)
      | Batch_callback f -> f batch
      | Callback f ->
          Batch.iter batch (fun item ->
              t.cb_seen <- t.cb_seen + 1;
              if t.cb_seen mod cb_sample = 0 then begin
                let t0 = Clock.now_ns () in
                f item;
                Metrics.Histogram.observe t.cb_latency (Clock.now_ns () -. t0)
              end
              else f item))
    t.subscribers

(* Seal the pending tuples into a batch carrying [ctrl] and deliver it.
   A full builder is handed to the batch directly (the next emit
   reallocates it) — at large batch sizes the tuple array lives in the
   major heap, and copying it too would double the GC pressure. *)
let seal t ctrl =
  let full_handoff = t.out_n = Array.length t.out_buf in
  let tuples =
    if full_handoff then begin
      let full = t.out_buf in
      t.out_buf <- [||];
      full
    end
    else Array.sub t.out_buf 0 t.out_n
  in
  let stamps =
    if not t.out_stamped then begin
      (* keep the stamp column the same length as the builder *)
      if full_handoff then t.out_stamps <- [||];
      None
    end
    else if full_handoff then begin
      let full = t.out_stamps in
      t.out_stamps <- [||];
      Some full
    end
    else begin
      let s = Array.sub t.out_stamps 0 t.out_n in
      (* the builder is reused; clear the consumed slots so stale
         stamps never leak into the next batch *)
      Array.fill t.out_stamps 0 t.out_n 0;
      Some s
    end
  in
  t.out_stamped <- false;
  let batch = Batch.make ?stamps tuples ctrl in
  t.out_n <- 0;
  deliver t batch

let flush_out t = if t.out_n > 0 then seal t None

let set_batch t n =
  let n = max 1 n in
  if n <> t.batch_size then begin
    flush_out t;
    t.batch_size <- n;
    t.out_buf <- [||];
    t.out_stamps <- [||]
  end

let batch_size t = t.batch_size

let emit t item =
  match item with
  | Item.Tuple values ->
      Metrics.Counter.incr t.tuples_out;
      if t.batch_size <= 1 then begin
        if t.pending_stamp = 0 then deliver t (Batch.of_item item)
        else begin
          let s = t.pending_stamp in
          t.pending_stamp <- 0;
          deliver t (Batch.make ~stamps:[| s |] [| values |] None)
        end
      end
      else begin
        if Array.length t.out_buf < t.batch_size then begin
          let grown = Array.make t.batch_size [||] in
          Array.blit t.out_buf 0 grown 0 t.out_n;
          t.out_buf <- grown;
          let grown_st = Array.make t.batch_size 0 in
          Array.blit t.out_stamps 0 grown_st 0 (min t.out_n (Array.length t.out_stamps));
          t.out_stamps <- grown_st
        end;
        t.out_buf.(t.out_n) <- values;
        if t.pending_stamp <> 0 then begin
          t.out_stamps.(t.out_n) <- t.pending_stamp;
          t.pending_stamp <- 0;
          t.out_stamped <- true
        end;
        t.out_n <- t.out_n + 1;
        if t.out_n >= t.batch_size then flush_out t
      end
  | Item.Punct _ | Item.Flush | Item.Eof | Item.Error _ | Item.Gap _ ->
      (* Control items seal the batch immediately: they keep their exact
         stream position, and downstream (heartbeat punctuation, wedge
         detection, EOF propagation) never waits on a partial batch. *)
      (match item with Item.Eof -> t.eof_emitted <- true | _ -> ());
      seal t (Some item)

let make_op ~name ~kind ~schema ~op =
  let t = make name kind schema (Op op) in
  t.op_emit <- emit t;
  t

(* A poisoned operator's end: once every input has delivered its Eof,
   the tuples and gaps it drained go out as one Gap, then its Eof. *)
let end_poisoned t =
  if (not t.eof_emitted) && t.eofs_in >= Array.length t.node_inputs then begin
    if t.drained <> 0 then emit t (Item.Gap t.drained);
    emit t Item.Eof
  end

(* Announce the failure downstream and stop producing. Tuples already
   in the output builder were emitted before the crash and are still
   valid; the Error control item seals them into their batch. A source
   ends at once; an operator ends when its inputs do. *)
let poison t msg =
  t.poisoned <- true;
  emit t (Item.Error msg);
  match t.behavior with
  | Src _ ->
      if not t.eof_emitted then emit t Item.Eof;
      t.source_done <- true
  | Op _ -> end_poisoned t

let handle_crash t exn =
  match t.supervisor with
  | None -> raise exn
  | Some sup -> (
      let restartable =
        match t.behavior with
        | Op op -> op.Operator.reset <> None
        | Src _ -> false
      in
      let verdict, msg = Supervisor.on_crash sup ~node:t.name ~restartable exn in
      match verdict with
      | Supervisor.Escalate -> raise (Supervisor.Crashed (t.name, msg))
      | Supervisor.Poison -> poison t msg
      | Supervisor.Retry ->
          (match t.behavior with
          | Op { Operator.reset = Some r; _ } -> r ()
          | Op _ | Src _ -> ());
          (* the crash consumed an unknown slice of the in-flight work *)
          emit t (Item.Gap (-1)))

let over_high_water t frac =
  List.exists
    (function
      | Chan chan ->
          (* The ring's capacity bounds batches while [length] counts
             items; at batch size 1 the units agree, and at larger batch
             sizes the comparison is simply a more tolerant high-water
             mark. *)
          Channel.length chan >= max 1 (int_of_float (frac *. float_of_int (Channel.capacity chan)))
      | Callback _ | Batch_callback _ -> false)
    t.subscribers

let flush_shed_gap t =
  if t.shed_pending > 0 then begin
    let n = t.shed_pending in
    t.shed_pending <- 0;
    emit t (Item.Gap n)
  end

let step_source t ~quantum =
  match t.behavior with
  | Op _ -> false
  | Src src ->
      if t.source_done then false
      else begin
        let produced = ref 0 in
        let continue = ref true in
        (try
           while !continue && !produced < quantum do
             Faults.crash_point ~node:t.name;
             match src.pull () with
             | Some item ->
                 incr produced;
                 let shed =
                   Item.is_tuple item
                   && match t.shed_hw with Some f -> over_high_water t f | None -> false
                 in
                 if shed then begin
                   t.shed_pending <- t.shed_pending + 1;
                   Metrics.Counter.incr t.shed_c
                 end
                 else begin
                   flush_shed_gap t;
                   if t.latency_sample > 0 && Item.is_tuple item then begin
                     t.lat_seen <- t.lat_seen + 1;
                     if t.lat_seen >= t.latency_sample then begin
                       t.lat_seen <- 0;
                       t.pending_stamp <- int_of_float (Clock.now_ns ())
                     end
                   end;
                   emit t item
                 end
             | None ->
                 t.source_done <- true;
                 continue := false;
                 flush_shed_gap t;
                 emit t Item.Eof
           done
         with exn ->
           continue := false;
           handle_crash t exn);
        (* Flush-on-idle: a partial batch never outlives the step that
           built it, so batching adds at most one scheduler round of
           latency when input is sparse. *)
        flush_out t;
        !produced > 0
      end

let add_drained t n = t.drained <- (if t.drained < 0 || n < 0 then -1 else t.drained + n)

(* A poisoned node has already announced its Error; it keeps consuming
   (and discarding) its inputs so upstream nodes never wedge against a
   full channel into a dead consumer, and the completion check's
   channels-empty condition still holds. What it discards is counted,
   so delivered + gaps = total still holds downstream. *)
let drain_poisoned t ~quantum =
  let progress = ref false in
  Array.iter
    (fun (_, chan) ->
      let consumed = ref 0 in
      let continue = ref true in
      while !continue && !consumed < quantum do
        match Channel.pop_batch chan with
        | Some batch ->
            consumed := !consumed + Batch.items batch;
            progress := true;
            add_drained t (Batch.n_tuples batch);
            (match Batch.ctrl batch with
            | Some (Item.Gap n) -> add_drained t n
            | Some Item.Eof -> t.eofs_in <- t.eofs_in + 1
            | Some _ | None -> ())
        | None -> continue := false
      done)
    t.node_inputs;
  end_poisoned t;
  !progress

(* End-of-step state enforcement. The quantum bounds how far past the
   limit a node can get within one step, so checking between steps is
   enough. The Gap announcing the discarded state must precede the
   Error that poisoning emits — downstream accounting then sees the
   loss before the stream closes; what the node drains after it
   follows as one more Gap before its Eof. *)
let check_watchdog t =
  let held = match t.behavior with Op op -> op.Operator.buffered () | Src _ -> 0 in
  if held > t.state_peak then t.state_peak <- held;
  if (not t.poisoned) && t.state_slack > 0.0 && Float.is_finite t.state_bound then begin
    let limit = Float.max 1.0 (t.state_bound *. t.state_slack) in
    if float_of_int held > limit then begin
      Metrics.Counter.incr t.watchdog_c;
      emit t (Item.Gap held);
      handle_crash t
        (Failure
           (Printf.sprintf
              "state watchdog: %d items held, past certified bound %.0f × slack %g" held
              t.state_bound t.state_slack))
    end
  end

(* The one loop every operator runs under. *)
let feed (op : Operator.t) ~input batch ~emit =
  let tuples = Batch.tuples batch in
  for j = 0 to Array.length tuples - 1 do
    op.on_tuple ~input tuples.(j) ~emit
  done;
  op.on_batch_end ~emit;
  match Batch.ctrl batch with Some ctrl -> op.on_ctrl ~input ctrl ~emit | None -> ()

let step_inputs t ~quantum =
  match t.behavior with
  | Src _ -> false
  | Op _ when t.poisoned -> drain_poisoned t ~quantum
  | Op op ->
      let progress = ref false in
      (try
         Array.iteri
           (fun i (_, chan) ->
             let consumed = ref 0 in
             let continue = ref true in
             while !continue && !consumed < quantum do
               match Channel.pop_batch chan with
               | Some batch ->
                   (* Whole batches only: the quantum is checked between
                      batches, so a large batch can overshoot it by one
                      batch — the output is quantum-independent either
                      way. *)
                   consumed := !consumed + Batch.items batch;
                   progress := true;
                   (* counted before the operator sees it: a crash
                      while feeding this batch must not leave a
                      poisoned node waiting for an Eof it consumed *)
                   (match Batch.ctrl batch with
                   | Some Item.Eof -> t.eofs_in <- t.eofs_in + 1
                   | Some _ | None -> ());
                   let nt = Batch.n_tuples batch in
                   if nt > 0 then Metrics.Counter.add t.tuples_in nt;
                   (* Stamp propagation (consume-once): the first stamp
                      of a consumed batch rides this node's next emitted
                      tuple. One input stamp yields at most one output
                      stamp, so the sample rate stays roughly stable
                      through filters and aggregates alike. *)
                   (match Batch.stamps batch with
                   | Some st when t.pending_stamp = 0 ->
                       let n = Array.length st in
                       let rec first j =
                         if j >= n then 0 else if st.(j) <> 0 then st.(j) else first (j + 1)
                       in
                       let s = first 0 in
                       if s <> 0 then t.pending_stamp <- s
                   | Some _ | None -> ());
                   Faults.crash_point ~node:t.name;
                   feed op ~input:i batch ~emit:t.op_emit
               | None -> continue := false
             done)
           t.node_inputs
       with exn -> handle_crash t exn);
      flush_out t;
      check_watchdog t;
      !progress

let exhausted t =
  match t.behavior with Src _ -> t.source_done | Op _ -> t.eof_emitted

let blocked_input t =
  match t.behavior with Src _ -> None | Op op -> op.Operator.blocked_input ()

let heartbeat t =
  match t.behavior with
  | Op _ -> ()
  | Src src ->
      if not t.source_done then begin
        let bounds = src.clock () in
        if bounds <> [] then emit t (Item.Punct bounds)
      end

let inject_flush t =
  match t.behavior with
  | Src _ -> ()
  | Op op ->
      op.Operator.on_ctrl ~input:0 Item.Flush ~emit:t.op_emit;
      (* Operators that swallow Flush (merge) may still have emitted
         tuples; don't leave them in the builder. *)
      flush_out t

let tuples_in t = Metrics.Counter.get t.tuples_in
let tuples_out t = Metrics.Counter.get t.tuples_out

let buffered t =
  match t.behavior with Src _ -> 0 | Op op -> op.Operator.buffered ()

let input_drops t =
  Array.fold_left (fun acc (_, chan) -> acc + Channel.drops chan) 0 t.node_inputs

let record_service t dt_ns = Metrics.Histogram.observe t.service dt_ns

let register_metrics t reg =
  let pfx = "rts.node." ^ t.name in
  Metrics.attach_counter reg (pfx ^ ".tuples_in") t.tuples_in;
  Metrics.attach_counter reg (pfx ^ ".tuples_out") t.tuples_out;
  Metrics.attach_gauge_fn reg (pfx ^ ".buffered") (fun () -> float_of_int (buffered t));
  Metrics.attach_histogram reg (pfx ^ ".service_ns") t.service;
  Metrics.attach_histogram reg (pfx ^ ".callback_ns") t.cb_latency;
  Metrics.attach_counter reg ("rts.shed." ^ t.name) t.shed_c;
  Metrics.attach_histogram reg ("rts.latency." ^ t.name) t.deliver_latency;
  (* State accounting: resident operator state vs its certified bound
     (infinity until the engine installs a certificate), plus watchdog
     trips. *)
  let spfx = "rts.state." ^ t.name in
  Metrics.attach_gauge_fn reg (spfx ^ ".used") (fun () -> float_of_int (buffered t));
  Metrics.attach_gauge_fn reg (spfx ^ ".peak") (fun () -> float_of_int t.state_peak);
  Metrics.attach_gauge_fn reg (spfx ^ ".bound") (fun () -> t.state_bound);
  Metrics.attach_counter reg (spfx ^ ".trips") t.watchdog_c
