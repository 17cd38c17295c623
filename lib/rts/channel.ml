module Ring = Gigascope_util.Ring
module Metrics = Gigascope_obs.Metrics
module Clock = Gigascope_obs.Clock

(* Every edge is one bounded ring of batches with one set of counters.
   An edge starts local: the ring drops on overflow and nothing locks.
   Before a multi-domain run spawns its workers, the scheduler switches
   each edge whose endpoints sit on different domains into blocking mode
   ({!set_blocking}); Node.step_inputs and the operators never notice.

   The transport unit is a Batch: one ring slot (and, in blocking mode,
   one lock acquire) moves a whole run of tuples, and a consumer pops
   whole batches only. [n_items] counts the items the ring holds, so
   depth and high-water are in items on every edge. *)

(* What blocking mode adds, allocated only by {!set_blocking}. *)
type blocking = {
  lock : Mutex.t;
  not_full : Condition.t;
  mutable limit : int;  (* items; a push waits while this many are buffered *)
  mutable closed : bool;
  mutable on_push : unit -> unit;
  blocked_ns : Metrics.Counter.t;
}

type t = {
  name : string;
  capacity : int;  (* ring slots *)
  ring : Batch.t Ring.t;
  mutable n_items : int;  (* buffered items *)
  mutable hw : int;
  mutable blocking : blocking option;
  tuples_in : Metrics.Counter.t;
  dropped : Metrics.Counter.t;
  occupancy : Metrics.Histogram.t;  (* items per pushed batch *)
}

let create ?(capacity = 4096) ~name () =
  {
    name;
    capacity;
    ring = Ring.create ~capacity;
    n_items = 0;
    hw = 0;
    blocking = None;
    tuples_in = Metrics.Counter.make ();
    dropped = Metrics.Counter.make ();
    occupancy = Metrics.Histogram.make ();
  }

let name t = t.name
let capacity t = t.capacity

(* The one place a batch enters the ring; the caller made room. *)
let enqueue t batch =
  ignore (Ring.push t.ring batch);
  let size = Batch.items batch in
  t.n_items <- t.n_items + size;
  if t.n_items > t.hw then t.hw <- t.n_items;
  let nt = Batch.n_tuples batch in
  if nt > 0 then Metrics.Counter.add t.tuples_in nt;
  Metrics.Histogram.observe t.occupancy (float_of_int size)

(* A refused batch loses every tuple it carried (not one drop per batch:
   the paper's headline metric must not silently improve under
   batching), plus a control item other than Eof/Error. *)
let drop t batch =
  let lost =
    Batch.n_tuples batch
    + (match Batch.ctrl batch with
      | Some (Item.Punct _ | Item.Flush | Item.Gap _) -> 1
      | Some (Item.Eof | Item.Error _) | Some (Item.Tuple _) | None -> 0)
  in
  if lost > 0 then Metrics.Counter.add t.dropped lost

let push_local t batch =
  if not (Ring.is_full t.ring) then begin
    enqueue t batch;
    true
  end
  else begin
    drop t batch;
    match Batch.ctrl batch with
    | Some ((Item.Eof | Item.Error _) as ctrl) ->
        (* An Eof must still get through or shutdown wedges: force a
           control-only batch in, evicting the oldest buffered batch
           exactly as the item-at-a-time path evicted a buffered item.
           What the evicted batch carried is lost, and counted so. *)
        (match Ring.pop t.ring with
        | Some old ->
            t.n_items <- t.n_items - Batch.items old;
            drop t old
        | None -> ());
        enqueue t (Batch.of_item ctrl);
        true
    | Some (Item.Punct _ | Item.Flush | Item.Gap _ | Item.Tuple _) | None -> false
  end

let close t =
  match t.blocking with
  | None -> ()
  | Some b ->
      Mutex.lock b.lock;
      b.closed <- true;
      Condition.broadcast b.not_full;
      Mutex.unlock b.lock;
      b.on_push ()

let full t b = t.n_items >= b.limit || Ring.is_full t.ring

let push_blocking t b batch =
  (* Chaos hooks, fired before the lock: an injected stall models a slow
     consumer domain; an injected close reproduces the
     close-while-producer-mid-push race. *)
  Faults.stall_point ~chan:t.name;
  Faults.xclose_point ~chan:t.name (fun () -> close t);
  Mutex.lock b.lock;
  (* Backpressure: wait until the consumer makes room, and account the
     wait ([blocked_ns]) the way a local ring accounts drops. A batch is
     admitted whole once any room exists, so depth can overshoot the
     limit by one batch — waiting until a batch larger than the limit
     fits exactly would deadlock. *)
  if (not b.closed) && full t b then begin
    let t0 = Clock.now_ns () in
    while (not b.closed) && full t b do
      Condition.wait b.not_full b.lock
    done;
    Metrics.Counter.add b.blocked_ns (int_of_float (Clock.now_ns () -. t0))
  end;
  (* A closed edge refuses everything; Eof there is the normal shutdown
     overlap, so [drop] does not count it. *)
  let accepted = not b.closed in
  if accepted then enqueue t batch else drop t batch;
  Mutex.unlock b.lock;
  (* Notify outside the lock: the consumer's signal has its own mutex and
     taking both at once invites lock-order cycles. *)
  if accepted then b.on_push ();
  accepted

let push_batch t batch =
  match t.blocking with None -> push_local t batch | Some b -> push_blocking t b batch

let push t item = push_batch t (Batch.of_item item)

let take_batch t =
  match Ring.pop t.ring with
  | Some b as r ->
      t.n_items <- t.n_items - Batch.items b;
      r
  | None -> None

let pop_batch t =
  match t.blocking with
  | None -> take_batch t
  | Some b ->
      (* a pop makes room: wake a waiting producer *)
      Mutex.lock b.lock;
      let r = take_batch t in
      if Option.is_some r then Condition.signal b.not_full;
      Mutex.unlock b.lock;
      r

(* Blocking mode reads under the lock: another domain is writing. *)
let read t f =
  match t.blocking with
  | None -> f t
  | Some b ->
      Mutex.lock b.lock;
      let v = f t in
      Mutex.unlock b.lock;
      v

let length t = read t (fun t -> t.n_items)
let is_empty t = length t = 0
let high_water t = read t (fun t -> t.hw)
let tuples_in t = Metrics.Counter.get t.tuples_in
let drops t = Metrics.Counter.get t.dropped

let blocked_ns t =
  match t.blocking with None -> 0 | Some b -> Metrics.Counter.get b.blocked_ns

let set_blocking t ~limit ~on_push =
  (* Never below what is already buffered: the switch runs on one domain
     before any worker spawns, so a push waiting here could never be
     drained. *)
  let limit = max (max 1 limit) t.n_items in
  match t.blocking with
  | Some b ->
      b.limit <- limit;
      b.on_push <- on_push;
      false
  | None ->
      t.blocking <-
        Some
          {
            lock = Mutex.create ();
            not_full = Condition.create ();
            limit;
            closed = false;
            on_push;
            blocked_ns = Metrics.Counter.make ();
          };
      true

let register_metrics t reg ~prefix =
  Metrics.attach_counter reg (prefix ^ ".tuples_in") t.tuples_in;
  Metrics.attach_counter reg (prefix ^ ".drops") t.dropped;
  (match t.blocking with
  | Some b -> Metrics.attach_counter reg (prefix ^ ".blocked_ns") b.blocked_ns
  | None -> ());
  Metrics.attach_gauge_fn reg (prefix ^ ".depth") (fun () -> float_of_int (length t));
  Metrics.attach_gauge_fn reg (prefix ^ ".high_water") (fun () -> float_of_int (high_water t));
  Metrics.attach_histogram reg (prefix ^ ".batch_items") t.occupancy
