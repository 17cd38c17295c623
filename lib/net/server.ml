module E = Gigascope.Engine
module Rts = Gigascope_rts
module Item = Rts.Item
module Schema = Rts.Schema
module Manager = Rts.Manager
module Node = Rts.Node
module Metrics = Gigascope_obs.Metrics
module Clock = Gigascope_obs.Clock

let log_src = Logs.Src.create "gigascope.net" ~doc:"Gigascope network data plane"

module Log = (val Logs.src_log log_src : Logs.LOG)

type policy = Block | Drop_newest | Disconnect

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "block" -> Ok Block
  | "drop" | "drop_newest" | "drop-newest" -> Ok Drop_newest
  | "disconnect" -> Ok Disconnect
  | other -> Error (Printf.sprintf "unknown slow-consumer policy %S (block|drop|disconnect)" other)

let policy_to_string = function
  | Block -> "block"
  | Drop_newest -> "drop_newest"
  | Disconnect -> "disconnect"

(* Per-subscriber bounded egress queue of the engine's own batches. The
   engine-side fanout callback enqueues under [smu]; the connection's
   writer thread drains. The two condvars make both directions
   blockable: [not_empty] parks the writer, [not_full] parks the engine
   under the Block policy. A batch keeps its latency-stamp column, so
   the writer can close a sampled tuple's ingest→send measurement at the
   socket. *)
type sub = {
  sub_id : int;
  sub_query : string;
  sq : Rts.Batch.t Queue.t;
  s_latency : Metrics.Histogram.t;  (* shared per query: net.latency.<q> *)
  smu : Mutex.t;
  s_not_empty : Condition.t;
  s_not_full : Condition.t;
  s_capacity : int;  (* items: tuples and control items *)
  mutable s_items : int;  (* items queued *)
  mutable s_eof : bool;  (* EOF is in (or has passed through) the queue *)
  mutable s_dead : bool;
  mutable s_disconnected : bool;  (* dead because the Disconnect policy fired *)
  (* Resume bookkeeping. A writer that loses its socket {e orphans} the
     sub instead of killing it: the queue keeps filling (never blocking
     the engine — Block degrades to dropping for an orphan), and a
     client quoting [sub_id] in a [Resume] re-attaches to it. [s_sent]
     counts tuples popped for sending, and the client's resume token is
     its position in that count (tuples delivered plus tuples announced
     by earlier resumes), so [s_sent - token] is exactly the in-flight
     loss of the last cut. The control item of the frame that failed is
     kept in [s_lost_ctrl] and sent again first, so an Eof or a Gap
     marker is never lost with its tuples. Tuples dropped by policy
     accumulate in [s_pending_gap] and enter the queue as an in-band
     [Item.Gap] marker in their true stream position, so replay after a
     resume reports every hole. *)
  mutable s_orphaned : bool;
  mutable s_sent : int;
  mutable s_lost_ctrl : Item.t option;
  mutable s_pending_gap : int;
  mutable s_conn : Conn.t option;  (* attached writer's connection, for heartbeats *)
  mutable s_skip_batch : bool;
      (* the first batch's tuples are withheld: see [add_sub] *)
}

(* A network-fed source: publishers push, the engine's source pull pops.
   Bounded, so a fast publisher is backpressured through TCP instead of
   ballooning the heap. *)
type ingest = {
  ing_name : string;
  ing_schema : Schema.t;
  ingq : Item.t Queue.t;
  ing_mu : Mutex.t;
  ing_not_empty : Condition.t;
  ing_not_full : Condition.t;
  ing_capacity : int;
  mutable ing_closed : bool;
  mutable ing_busy : bool;
  mutable ing_clock : (int * Rts.Value.t) list;  (* last punctuation bounds seen *)
}

type t = {
  engine : E.t;
  policy : policy;
  egress_capacity : int;
  peer_name : string;
  heartbeat : float option;  (* interval (s) of liveness frames to subscribers *)
  mu : Mutex.t;
  subs : (int, sub) Hashtbl.t;
  by_query : (string, sub list) Hashtbl.t;
  attached : (string, unit) Hashtbl.t;
  ingests : (string, ingest) Hashtbl.t;
  conns : (int, Conn.t) Hashtbl.t;
  mutable listeners : (Unix.file_descr * Addr.t) list;
  mutable threads : Thread.t list;
  mutable running : bool;
  mutable hb_started : bool;
  mutable next_id : int;
  counters : Conn.counters;
  c_connections : Metrics.Counter.t;
  c_subscribers : Metrics.Counter.t;
  c_drops : Metrics.Counter.t;
  c_disconnects : Metrics.Counter.t;
  c_errors : Metrics.Counter.t;
  c_ingest_tuples : Metrics.Counter.t;
  c_heartbeats : Metrics.Counter.t;
  c_gaps : Metrics.Counter.t;
  c_resumes : Metrics.Counter.t;
}

let qkey = String.lowercase_ascii

let create ?(policy = Drop_newest) ?(egress_capacity = 4096) ?(peer_name = "gsq-server")
    ?heartbeat engine =
  let reg = E.metrics engine in
  let t =
    {
      engine;
      policy;
      egress_capacity = max 1 egress_capacity;
      peer_name;
      heartbeat;
      mu = Mutex.create ();
      subs = Hashtbl.create 16;
      by_query = Hashtbl.create 16;
      attached = Hashtbl.create 16;
      ingests = Hashtbl.create 4;
      conns = Hashtbl.create 16;
      listeners = [];
      threads = [];
      running = true;
      hb_started = false;
      next_id = 0;
      counters = Conn.counters_in reg ~prefix:"net";
      c_connections = Metrics.counter reg "net.connections";
      c_subscribers = Metrics.counter reg "net.subscribers";
      c_drops = Metrics.counter reg "net.subscriber.drops";
      c_disconnects = Metrics.counter reg "net.subscriber.disconnects";
      c_errors = Metrics.counter reg "net.errors";
      c_ingest_tuples = Metrics.counter reg "net.ingest.tuples";
      c_heartbeats = Metrics.counter reg "net.heartbeats.sent";
      c_gaps = Metrics.counter reg "net.gaps";
      c_resumes = Metrics.counter reg "net.resumes";
    }
  in
  (* Polled gauges close over this server; guard against a second server
     on the same engine re-attaching the same names. *)
  let attach_gauge name f = if not (Metrics.mem reg name) then Metrics.attach_gauge_fn reg name f in
  attach_gauge "net.connections.active" (fun () ->
      Mutex.lock t.mu;
      let n = Hashtbl.length t.conns in
      Mutex.unlock t.mu;
      float_of_int n);
  attach_gauge "net.subscribers.active" (fun () ->
      Mutex.lock t.mu;
      let n = Hashtbl.length t.subs in
      Mutex.unlock t.mu;
      float_of_int n);
  attach_gauge "net.subscriber.queue_depth" (fun () ->
      Mutex.lock t.mu;
      let depth = Hashtbl.fold (fun _ s acc -> acc + s.s_items) t.subs 0 in
      Mutex.unlock t.mu;
      float_of_int depth);
  t

(* --------------------------- egress fanout ------------------------------ *)

(* Under [smu]: the one place a batch enters the queue. A pending drop
   run goes first, as one Gap marker in its true stream position — loss
   is reported, never silent. *)
let push sub batch =
  if sub.s_pending_gap > 0 then begin
    Queue.push (Rts.Batch.of_item (Item.Gap sub.s_pending_gap)) sub.sq;
    sub.s_items <- sub.s_items + 1;
    sub.s_pending_gap <- 0
  end;
  Queue.push batch sub.sq;
  sub.s_items <- sub.s_items + Rts.Batch.items batch;
  match Rts.Batch.ctrl batch with Some Item.Eof -> sub.s_eof <- true | _ -> ()

(* Engine side: runs on whatever domain delivers the node's output, once
   per batch. Only tuples are subject to the policy; a control item
   never waits and always lands (bounded overshoot), so stream position
   and shutdown survive any policy. Block waits while the queue is full
   and then admits the batch whole, overshooting by less than a batch;
   Disconnect ends the link at the first tuple that does not fit; an
   orphaned sub, and Drop_newest, keep the prefix that fits and count
   the rest as drops. *)
let enqueue t sub batch =
  let n = Rts.Batch.n_tuples batch in
  let block = t.policy = Block in
  Mutex.lock sub.smu;
  (* an orphaned sub has no writer to drain it; blocking the engine on
     one would trade a client failure for a wedge *)
  if block && n > 0 then
    while sub.s_items >= sub.s_capacity && not (sub.s_dead || sub.s_orphaned) do
      Condition.wait sub.s_not_full sub.smu
    done;
  let fit =
    if block && not sub.s_orphaned then n else max 0 (min n (sub.s_capacity - sub.s_items))
  in
  (if sub.s_dead then ()
   else if fit = n then push sub batch
   else if t.policy = Disconnect && not sub.s_orphaned then begin
     sub.s_dead <- true;
     sub.s_disconnected <- true;
     Metrics.Counter.incr t.c_disconnects
   end
   else begin
     let prefix a = Array.sub a 0 fit in
     if fit > 0 then
       push sub
         (Rts.Batch.make
            ?stamps:(Option.map prefix (Rts.Batch.stamps batch))
            (prefix (Rts.Batch.tuples batch)) None);
     sub.s_pending_gap <- sub.s_pending_gap + (n - fit);
     Metrics.Counter.add t.c_drops (n - fit);
     Option.iter (fun c -> push sub (Rts.Batch.of_item c)) (Rts.Batch.ctrl batch)
   end);
  Condition.signal sub.s_not_empty;
  Mutex.unlock sub.smu

(* Every subscriber queues the engine's batch itself. A sub withholding
   its first batch (see [add_sub]) still queues that batch's control
   item. *)
let fanout t qname batch =
  let targets =
    Mutex.lock t.mu;
    let l = Option.value (Hashtbl.find_opt t.by_query qname) ~default:[] in
    Mutex.unlock t.mu;
    l
  in
  List.iter
    (fun sub ->
      if not sub.s_skip_batch then enqueue t sub batch
      else begin
        sub.s_skip_batch <- false;
        Option.iter (fun c -> enqueue t sub (Rts.Batch.of_item c)) (Rts.Batch.ctrl batch)
      end)
    targets

let attach_queries t =
  Mutex.lock t.mu;
  let missing =
    List.filter
      (fun node -> not (Hashtbl.mem t.attached (qkey (Node.name node))))
      (Manager.nodes (E.manager t.engine))
  in
  List.iter (fun node -> Hashtbl.replace t.attached (qkey (Node.name node)) ()) missing;
  Mutex.unlock t.mu;
  List.iter
    (fun node ->
      let qname = qkey (Node.name node) in
      match Manager.on_batch (E.manager t.engine) (Node.name node) (fun b -> fanout t qname b) with
      | Ok () -> ()
      | Error e -> Log.warn (fun m -> m "cannot attach fanout to %s: %s" (Node.name node) e))
    missing

(* ------------------------------ ingest ---------------------------------- *)

let add_ingest t ~name ~schema ?(capacity = 4096) () =
  let ing =
    {
      ing_name = name;
      ing_schema = schema;
      ingq = Queue.create ();
      ing_mu = Mutex.create ();
      ing_not_empty = Condition.create ();
      ing_not_full = Condition.create ();
      ing_capacity = max 1 capacity;
      ing_closed = false;
      ing_busy = false;
      ing_clock = [];
    }
  in
  let pull () =
    Mutex.lock ing.ing_mu;
    while Queue.is_empty ing.ingq && not ing.ing_closed do
      Condition.wait ing.ing_not_empty ing.ing_mu
    done;
    let item = Queue.take_opt ing.ingq in
    (match item with
    | Some (Item.Punct bounds) -> ing.ing_clock <- bounds
    | Some _ | None -> ());
    if item <> None then Condition.signal ing.ing_not_full;
    Mutex.unlock ing.ing_mu;
    item
  in
  let clock () =
    Mutex.lock ing.ing_mu;
    let bounds = ing.ing_clock in
    Mutex.unlock ing.ing_mu;
    bounds
  in
  Mutex.lock t.mu;
  let dup = Hashtbl.mem t.ingests (qkey name) in
  if not dup then Hashtbl.replace t.ingests (qkey name) ing;
  Mutex.unlock t.mu;
  if dup then Error (Printf.sprintf "ingest %s already registered" name)
  else
    match E.add_custom_source t.engine ~name ~schema ~pull ~clock with
    | Ok () -> Ok ()
    | Error _ as e ->
        Mutex.lock t.mu;
        Hashtbl.remove t.ingests (qkey name);
        Mutex.unlock t.mu;
        e

let close_ingest ing =
  Mutex.lock ing.ing_mu;
  ing.ing_closed <- true;
  Condition.broadcast ing.ing_not_empty;
  Condition.broadcast ing.ing_not_full;
  Mutex.unlock ing.ing_mu

(* Publisher side: push one item, blocking when full (TCP backpressure:
   the handler thread stops reading the socket). False once closed. *)
let ingest_push t ing item =
  Mutex.lock ing.ing_mu;
  while Queue.length ing.ingq >= ing.ing_capacity && not ing.ing_closed do
    Condition.wait ing.ing_not_full ing.ing_mu
  done;
  let accepted = not ing.ing_closed in
  if accepted then begin
    Queue.push item ing.ingq;
    if Item.is_tuple item then Metrics.Counter.incr t.c_ingest_tuples;
    Condition.signal ing.ing_not_empty
  end;
  Mutex.unlock ing.ing_mu;
  accepted

(* --------------------------- subscriber side ---------------------------- *)

let add_sub t qname =
  (* get-or-create, so every subscriber of a query shares one egress
     latency histogram under net.latency.<query> *)
  let latency = Metrics.histogram (E.metrics t.engine) ("net.latency." ^ qname) in
  (* A client reading a Protocol source gets every field. Subscribing
     mid-run, it starts at the source's next batch: the batch in flight
     may hold tuples interpreted before the source was widened. *)
  E.note_direct_consumer t.engine qname;
  let skip_batch =
    Manager.started (E.manager t.engine)
    &&
    match Manager.find (E.manager t.engine) qname with
    | Some node -> Node.kind node = Node.Source
    | None -> false
  in
  Mutex.lock t.mu;
  t.next_id <- t.next_id + 1;
  let sub =
    {
      sub_id = t.next_id;
      sub_query = qname;
      sq = Queue.create ();
      s_latency = latency;
      smu = Mutex.create ();
      s_not_empty = Condition.create ();
      s_not_full = Condition.create ();
      (* Grow-only auto-sizing: an egress ring smaller than the query's
         certified burst (an LFTA table flush arriving in one step) would
         drop or stall on every epoch boundary. *)
      s_capacity = max t.egress_capacity (E.certified_burst t.engine qname + 64);
      s_items = 0;
      s_eof = false;
      s_dead = false;
      s_disconnected = false;
      s_orphaned = false;
      s_sent = 0;
      s_lost_ctrl = None;
      s_pending_gap = 0;
      s_conn = None;
      s_skip_batch = skip_batch;
    }
  in
  Hashtbl.replace t.subs sub.sub_id sub;
  Hashtbl.replace t.by_query qname
    (sub :: Option.value (Hashtbl.find_opt t.by_query qname) ~default:[]);
  Mutex.unlock t.mu;
  Metrics.Counter.incr t.c_subscribers;
  sub

let remove_sub t sub =
  Mutex.lock t.mu;
  Hashtbl.remove t.subs sub.sub_id;
  (match Hashtbl.find_opt t.by_query sub.sub_query with
  | Some l -> Hashtbl.replace t.by_query sub.sub_query (List.filter (fun s -> s != sub) l)
  | None -> ());
  Mutex.unlock t.mu;
  (* a dead queue must never hold the engine hostage *)
  Mutex.lock sub.smu;
  sub.s_dead <- true;
  Condition.broadcast sub.s_not_full;
  Mutex.unlock sub.smu

let kill_sub sub =
  Mutex.lock sub.smu;
  sub.s_dead <- true;
  sub.s_conn <- None;
  Condition.broadcast sub.s_not_full;
  Condition.broadcast sub.s_not_empty;
  Mutex.unlock sub.smu

(* The writer lost its socket: keep the queue alive for a possible
   [Resume], release any engine thread blocked on it, and make sure the
   engine can never block on it again (see [enqueue]). *)
let orphan_sub sub =
  Mutex.lock sub.smu;
  sub.s_orphaned <- true;
  sub.s_conn <- None;
  Condition.broadcast sub.s_not_full;
  Condition.broadcast sub.s_not_empty;
  Mutex.unlock sub.smu

(* Drain the egress queue to the socket, one wire batch per run of
   queued batches: at least one, at most [max_run] items, ending at the
   first batch that carries a control item, which seals the frame in its
   true position. A failed send {e orphans} the sub rather than killing
   it — the queue keeps collecting (with in-band gap markers once full)
   so a [Resume] can pick up where the socket died. *)
let max_run = 512

let writer_loop t conn sub =
  Mutex.lock sub.smu;
  sub.s_conn <- Some conn;
  let lost = sub.s_lost_ctrl in
  sub.s_lost_ctrl <- None;
  Mutex.unlock sub.smu;
  let send batch =
    (match Rts.Batch.ctrl batch with Some (Item.Gap _) -> Metrics.Counter.incr t.c_gaps | _ -> ());
    match Conn.send conn (Wire.Batch batch) with
    | Ok () -> (
        (* egress latency closes here: the stamped tuple has left the
           server for this subscriber's socket *)
        (match Rts.Batch.stamps batch with
        | Some st ->
            let now = Clock.now_ns () in
            Array.iter
              (fun s ->
                if s <> 0 then Metrics.Histogram.observe sub.s_latency (now -. float_of_int s))
              st
        | None -> ());
        match Rts.Batch.ctrl batch with Some Item.Eof -> `Eof | _ -> `Sent)
    | Error e ->
        Log.debug (fun m -> m "subscriber %s: %s" (Conn.peer conn) e);
        Mutex.lock sub.smu;
        sub.s_lost_ctrl <- Rts.Batch.ctrl batch;
        Mutex.unlock sub.smu;
        `Lost
  in
  (* A run is popped newest first; only its newest batch can carry a
     control item. *)
  let rec take run items =
    match Queue.peek_opt sub.sq with
    | Some b when run = [] || items + Rts.Batch.items b <= max_run ->
        ignore (Queue.pop sub.sq);
        let run = b :: run and items = items + Rts.Batch.items b in
        if Option.is_none (Rts.Batch.ctrl b) then take run items else (run, items)
    | _ -> (run, items)
  in
  let frame = function
    | [ b ] -> b
    | run ->
        let column f = Array.concat (List.rev_map f run) in
        let stamps b =
          match Rts.Batch.stamps b with Some st -> st | None -> Array.make (Rts.Batch.n_tuples b) 0
        in
        let stamped = List.exists (fun b -> Option.is_some (Rts.Batch.stamps b)) run in
        Rts.Batch.make
          ?stamps:(if stamped then Some (column stamps) else None)
          (column Rts.Batch.tuples) (Rts.Batch.ctrl (List.hd run))
  in
  let rec loop () =
    Mutex.lock sub.smu;
    while sub.s_items = 0 && not sub.s_dead do
      Condition.wait sub.s_not_empty sub.smu
    done;
    if sub.s_disconnected || sub.s_items = 0 then begin
      let disconnected = sub.s_disconnected in
      Mutex.unlock sub.smu;
      if disconnected then
        ignore (Conn.send conn (Wire.Err "disconnected: slow consumer (policy disconnect)"));
      `Done
    end
    else begin
      let run, items = take [] 0 in
      sub.s_items <- sub.s_items - items;
      (* popped is as good as sent for resume accounting: a tuple that
         dies between here and the socket is exactly what the client's
         token subtraction turns into a gap *)
      sub.s_sent <- List.fold_left (fun n b -> n + Rts.Batch.n_tuples b) sub.s_sent run;
      Condition.broadcast sub.s_not_full;
      Mutex.unlock sub.smu;
      match send (frame run) with `Sent -> loop () | (`Eof | `Lost) as r -> r
    end
  in
  let first = match lost with Some c -> send (Rts.Batch.of_item c) | None -> `Sent in
  match (match first with `Sent -> loop () | (`Eof | `Lost) as r -> r) with
  | `Eof ->
      ignore (Conn.send conn Wire.Bye);
      remove_sub t sub
  | `Done -> remove_sub t sub
  | `Lost -> orphan_sub sub

(* Atomically adopt an orphaned sub for a resuming client; the returned
   [s_sent] against the client's token gives the loss to announce. *)
let claim_sub sub =
  Mutex.lock sub.smu;
  let ok = sub.s_orphaned && not sub.s_dead in
  if ok then sub.s_orphaned <- false;
  let sent = sub.s_sent in
  Mutex.unlock sub.smu;
  if ok then Some sent else None

(* A resume can race the orphaning: the old writer only discovers its
   severed socket at the next send, while the client redials within
   milliseconds. Wait briefly for the orphan instead of refusing a
   resume that is about to become valid. *)
let claim_sub_wait sub =
  let rec go n =
    match claim_sub sub with
    | Some _ as r -> r
    | None when n > 0 ->
        Thread.delay 0.005;
        go (n - 1)
    | None -> None
  in
  go 60

(* Fault injection: abruptly close the socket under every live
   subscriber (of [query] only, when given). The writer threads discover
   the dead sockets on their next send and orphan the subscriptions, so
   a reconnecting client resumes with an exact gap — the same path a
   pulled cable exercises. Returns the number of connections severed. *)
let sever_subscribers ?query t =
  Mutex.lock t.mu;
  let victims =
    Hashtbl.fold
      (fun _ s acc ->
        match s.s_conn with
        | Some c
          when (match query with None -> true | Some q -> s.sub_query = qkey q)
               && not s.s_dead ->
            c :: acc
        | _ -> acc)
      t.subs []
  in
  Mutex.unlock t.mu;
  List.iter Conn.close victims;
  List.length victims

(* --------------------------- connections -------------------------------- *)

let registry_listing t =
  List.map
    (fun node ->
      let kind =
        match Node.kind node with
        | Node.Source -> "source"
        | Node.Lfta -> "lfta"
        | Node.Hfta -> "hfta"
      in
      { Wire.q_name = Node.name node; q_kind = kind; q_schema = Node.schema node })
    (Manager.nodes (E.manager t.engine))

let publish_loop t conn ing =
  let finish () = close_ingest ing in
  let rec loop () =
    match Conn.recv conn with
    | Ok (Wire.Batch b) ->
        let eof = ref false in
        Wire.Batch.iter b (fun item ->
            match item with
            | Item.Eof -> eof := true
            | it -> if not (ingest_push t ing it) then eof := true);
        if !eof then begin
          finish ();
          ignore (Conn.send conn Wire.Bye)
        end
        else loop ()
    | Ok Wire.Bye -> finish ()
    | Ok msg ->
        ignore
          (Conn.send conn (Wire.Err (Printf.sprintf "unexpected %s while publishing" (Wire.msg_label msg))));
        finish ()
    | Error e ->
        (* the publisher vanished: the stream is over, the engine must
           not wait forever on a pull that can never be satisfied *)
        Log.info (fun m -> m "publisher for %s gone: %s" ing.ing_name e);
        finish ()
  in
  loop ()

let control_loop t conn =
  (* The reply to Subscribe carries gap 0; the reply to Resume announces
     the loss: what was popped past the client's position, or -1
     (unknown) for a fresh queue. *)
  let subscribed node sub gap =
    Conn.send conn
      (Wire.Subscribed
         { name = Node.name node; schema = Node.schema node; sub_id = sub.sub_id; gap })
  in
  let rec loop () =
    match Conn.recv conn with
    | Ok Wire.List_queries -> (
        match Conn.send conn (Wire.Queries (registry_listing t)) with
        | Ok () -> loop ()
        | Error _ -> ())
    | Ok (Wire.Subscribe name) -> (
        match Manager.find (E.manager t.engine) name with
        | None ->
            ignore (Conn.send conn (Wire.Err (Printf.sprintf "unknown query %s" name)));
            loop ()
        | Some node ->
            let canonical = qkey (Node.name node) in
            let sub = add_sub t canonical in
            (match subscribed node sub 0 with
            | Ok () ->
                Log.info (fun m -> m "%s subscribed to %s" (Conn.peer conn) (Node.name node));
                writer_loop t conn sub
            | Error _ -> remove_sub t sub))
    | Ok (Wire.Resume { name; sub_id; token }) -> (
        match Manager.find (E.manager t.engine) name with
        | None -> ignore (Conn.send conn (Wire.Err (Printf.sprintf "unknown query %s" name)))
        | Some node -> (
            let existing =
              Mutex.lock t.mu;
              let s = Hashtbl.find_opt t.subs sub_id in
              Mutex.unlock t.mu;
              s
            in
            let resumed sub gap =
              Metrics.Counter.incr t.c_resumes;
              if gap <> 0 then Metrics.Counter.incr t.c_gaps;
              subscribed node sub gap
            in
            match existing with
            | Some sub when sub.sub_query = qkey (Node.name node) -> (
                match claim_sub_wait sub with
                | Some sent -> (
                    (* replay from the egress queue *)
                    Log.info (fun m ->
                        m "%s resumed %s (sub %d, token %d, sent %d)" (Conn.peer conn)
                          (Node.name node) sub_id token sent);
                    match resumed sub (max 0 (sent - token)) with
                    | Ok () -> writer_loop t conn sub
                    | Error _ -> orphan_sub sub)
                | None -> ignore (Conn.send conn (Wire.Err "subscription not resumable")))
            | Some _ | None -> (
                (* nothing to replay from: a fresh subscription *)
                let sub = add_sub t (qkey (Node.name node)) in
                match resumed sub (-1) with
                | Ok () -> writer_loop t conn sub
                | Error _ -> remove_sub t sub)))
    | Ok (Wire.Publish name) -> (
        let ing =
          Mutex.lock t.mu;
          let i = Hashtbl.find_opt t.ingests (qkey name) in
          Mutex.unlock t.mu;
          i
        in
        match ing with
        | None ->
            ignore (Conn.send conn (Wire.Err (Printf.sprintf "unknown ingest interface %s" name)));
            loop ()
        | Some ing ->
            let claimed =
              Mutex.lock ing.ing_mu;
              let free = (not ing.ing_busy) && not ing.ing_closed in
              if free then ing.ing_busy <- true;
              Mutex.unlock ing.ing_mu;
              free
            in
            if not claimed then begin
              ignore
                (Conn.send conn
                   (Wire.Err (Printf.sprintf "ingest %s already has a publisher" name)));
              loop ()
            end
            else begin
              match
                Conn.send conn
                  (Wire.Publish_ok { iface = ing.ing_name; schema = ing.ing_schema })
              with
              | Ok () ->
                  Log.info (fun m -> m "%s publishing to %s" (Conn.peer conn) ing.ing_name);
                  publish_loop t conn ing
              | Error _ -> close_ingest ing
            end)
    | Ok Wire.Bye -> ()
    | Ok msg ->
        Metrics.Counter.incr t.c_errors;
        ignore (Conn.send conn (Wire.Err (Printf.sprintf "unexpected %s" (Wire.msg_label msg))))
    | Error e ->
        if t.running then begin
          Metrics.Counter.incr t.c_errors;
          Log.info (fun m -> m "connection %s: %s" (Conn.peer conn) e);
          ignore (Conn.send conn (Wire.Err e))
        end
  in
  loop ()

(* A TCP connection is named by the client's address. A Unix-domain
   client has none, so its connection is named by the listener and the
   name the client gives in its Hello, which its redials repeat: fault
   points key their hit counters by this name, so each client keeps its
   own count, one count across its reconnections. *)
let handle_conn t fd ~listener peer_addr =
  let peer =
    match listener with
    | Addr.Unix_sock _ -> Addr.to_string listener
    | Addr.Tcp _ -> Addr.to_string (Addr.of_sockaddr peer_addr)
  in
  let conn = Conn.of_fd ~counters:t.counters ~peer fd in
  let conn_id =
    Mutex.lock t.mu;
    t.next_id <- t.next_id + 1;
    let id = t.next_id in
    Hashtbl.replace t.conns id conn;
    Mutex.unlock t.mu;
    id
  in
  Metrics.Counter.incr t.c_connections;
  Fun.protect
    ~finally:(fun () ->
      Conn.close conn;
      Mutex.lock t.mu;
      Hashtbl.remove t.conns conn_id;
      Mutex.unlock t.mu)
    (fun () ->
      match Conn.recv conn with
      | Ok (Wire.Hello { version; peer = who }) ->
          if version <> Wire.protocol_version then
            ignore
              (Conn.send conn
                 (Wire.Err
                    (Printf.sprintf "protocol version %d unsupported (want %d)" version
                       Wire.protocol_version)))
          else begin
            Log.debug (fun m -> m "hello from %s (%s)" who peer);
            (match listener with
            | Addr.Unix_sock _ -> Conn.rename conn (peer ^ "#" ^ who)
            | Addr.Tcp _ -> ());
            match
              Conn.send conn (Wire.Hello { version = Wire.protocol_version; peer = t.peer_name })
            with
            | Ok () -> control_loop t conn
            | Error _ -> ()
          end
      | Ok msg ->
          Metrics.Counter.incr t.c_errors;
          ignore
            (Conn.send conn (Wire.Err (Printf.sprintf "expected hello, got %s" (Wire.msg_label msg))))
      | Error e ->
          Metrics.Counter.incr t.c_errors;
          Log.info (fun m -> m "handshake with %s failed: %s" peer e))

let accept_loop t lfd addr =
  let rec loop () =
    match Unix.accept lfd with
    | fd, _ when not t.running ->
        (* the wake-up connection from [stop], or a last-instant client *)
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | fd, peer_addr ->
        let th =
          Thread.create
            (fun () ->
              try handle_conn t fd ~listener:addr peer_addr
              with exn ->
                Metrics.Counter.incr t.c_errors;
                Log.warn (fun m -> m "connection handler died: %s" (Printexc.to_string exn)))
            ()
        in
        Mutex.lock t.mu;
        t.threads <- th :: t.threads;
        Mutex.unlock t.mu;
        loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* listener closed: shutdown path *)
        ()
    | exception Unix.Unix_error (e, _, _) ->
        if t.running then begin
          Log.warn (fun m ->
              m "accept on %s: %s" (Addr.to_string addr) (Unix.error_message e));
          Thread.delay 0.01;
          loop ()
        end
  in
  loop ()

(* Liveness frames on the control/data socket: a subscriber whose query
   is quiet still sees traffic every [iv] seconds, so a client-side read
   deadline can tell "idle stream" from "dead server". Sent from one
   thread for all subscribers; a send error here is left for the
   sub's own writer to discover and orphan on. Sleep in short slices so
   [stop] never waits a full interval for the join. *)
let heartbeat_loop t iv =
  let rec nap remaining =
    if t.running && remaining > 0.0 then begin
      let d = Float.min 0.05 remaining in
      Thread.delay d;
      nap (remaining -. d)
    end
  in
  while t.running do
    nap iv;
    if t.running then begin
      Mutex.lock t.mu;
      let conns =
        Hashtbl.fold (fun _ s acc -> match s.s_conn with Some c -> c :: acc | None -> acc)
          t.subs []
      in
      Mutex.unlock t.mu;
      List.iter
        (fun conn ->
          match Conn.send conn Wire.Heartbeat with
          | Ok () -> Metrics.Counter.incr t.c_heartbeats
          | Error _ -> ())
        conns
    end
  done

let start_heartbeat t =
  match t.heartbeat with
  | None -> ()
  | Some iv when iv > 0.0 ->
      Mutex.lock t.mu;
      let start = (not t.hb_started) && t.running in
      if start then t.hb_started <- true;
      Mutex.unlock t.mu;
      if start then begin
        let th = Thread.create (fun () -> heartbeat_loop t iv) () in
        Mutex.lock t.mu;
        t.threads <- th :: t.threads;
        Mutex.unlock t.mu
      end
  | Some _ -> ()

let listen t addr =
  attach_queries t;
  start_heartbeat t;
  match Addr.to_sockaddr addr with
  | Error _ as e -> e
  | Ok sockaddr -> (
      let domain = Unix.domain_of_sockaddr sockaddr in
      match
        let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
        (try
           if domain <> Unix.PF_UNIX then Unix.setsockopt fd Unix.SO_REUSEADDR true;
           (match sockaddr with
           | Unix.ADDR_UNIX path when Sys.file_exists path ->
               (* A leftover socket file from a dead server should be
                  reclaimed; one with a live listener behind it must not
                  be stolen. Only a connect probe can tell the two
                  apart. *)
               let live =
                 match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
                 | exception Unix.Unix_error _ -> false
                 | probe -> (
                     let alive =
                       match Unix.connect probe sockaddr with
                       | () -> true
                       | exception Unix.Unix_error _ -> false
                     in
                     (try Unix.close probe with Unix.Unix_error _ -> ());
                     alive)
               in
               if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
               else ( try Unix.unlink path with Unix.Unix_error _ -> ())
           | _ -> ());
           Unix.bind fd sockaddr;
           Unix.listen fd 64
         with exn ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise exn);
        fd
      with
      | fd ->
          let bound = Addr.of_sockaddr (Unix.getsockname fd) in
          let bound = match (bound, addr) with
            | Addr.Tcp (_, port), Addr.Tcp (host, _) -> Addr.Tcp (host, port)
            | b, _ -> b
          in
          Mutex.lock t.mu;
          t.listeners <- (fd, bound) :: t.listeners;
          Mutex.unlock t.mu;
          let th = Thread.create (fun () -> accept_loop t fd bound) () in
          Mutex.lock t.mu;
          t.threads <- th :: t.threads;
          Mutex.unlock t.mu;
          Log.info (fun m -> m "listening on %s" (Addr.to_string bound));
          Ok bound
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot listen on %s: %s" (Addr.to_string addr)
               (Unix.error_message e)))

let addresses t =
  Mutex.lock t.mu;
  let l = List.rev_map snd t.listeners in
  Mutex.unlock t.mu;
  l

let subscriber_count t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.subs in
  Mutex.unlock t.mu;
  n

let attached_count t =
  Mutex.lock t.mu;
  let n = Hashtbl.fold (fun _ s acc -> if s.s_orphaned then acc else acc + 1) t.subs 0 in
  Mutex.unlock t.mu;
  n

let drain ?(timeout = 10.0) t =
  let deadline = Gigascope_obs.Clock.now_ns () +. (timeout *. 1e9) in
  let rec wait () =
    if attached_count t = 0 then true
    else if Gigascope_obs.Clock.now_ns () > deadline then false
    else begin
      Thread.delay 0.005;
      wait ()
    end
  in
  wait ()

let stop t =
  Mutex.lock t.mu;
  let was_running = t.running in
  t.running <- false;
  let listeners = t.listeners in
  t.listeners <- [];
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let subs = Hashtbl.fold (fun _ s acc -> s :: acc) t.subs [] in
  let ingests = Hashtbl.fold (fun _ i acc -> i :: acc) t.ingests [] in
  Mutex.unlock t.mu;
  if was_running then begin
    (* Closing a listening fd does not wake a thread blocked in accept(2);
       shutdown plus a throwaway self-connection does, whatever the
       transport. The accept loop sees [running = false] and exits. *)
    List.iter
      (fun (fd, addr) ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        (match Addr.to_sockaddr addr with
        | Ok sa -> (
            try
              let wfd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
              (try Unix.connect wfd sa with Unix.Unix_error _ -> ());
              try Unix.close wfd with Unix.Unix_error _ -> ()
            with Unix.Unix_error _ -> ())
        | Error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match addr with
        | Addr.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | Addr.Tcp _ -> ())
      listeners;
    List.iter kill_sub subs;
    List.iter close_ingest ingests;
    List.iter Conn.close conns;
    let rec join_all () =
      Mutex.lock t.mu;
      let ths = t.threads in
      t.threads <- [];
      Mutex.unlock t.mu;
      match ths with
      | [] -> ()
      | ths ->
          List.iter Thread.join ths;
          join_all ()
    in
    join_all ();
    Log.info (fun m -> m "server stopped")
  end
