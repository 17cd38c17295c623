module Clock = Gigascope_obs.Clock

(* ---------------- wakeup signals ---------------------------------------- *)

type signal = {
  mu : Mutex.t;
  cond : Condition.t;
  mutable hint : bool;
  mutable parked : bool;  (* inside Condition.wait *)
  mutable exited : bool;  (* the owning domain's loop has returned *)
  mutable seq : int;  (* notify count — the wedge probe's activity witness *)
}

let make_signal () =
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    hint = false;
    parked = false;
    exited = false;
    seq = 0;
  }

let notify s =
  Mutex.lock s.mu;
  s.hint <- true;
  s.seq <- s.seq + 1;
  Condition.signal s.cond;
  Mutex.unlock s.mu

(* The hint closes the classic race: a producer that pushed between our
   last empty-check and this wait leaves the hint set, so we return
   immediately instead of sleeping through the wakeup. [poke] (a worker's
   "I am parking" announcement to domain 0) runs after [parked] is set and
   before the wait, all under the signal lock: by the time the poke is
   observable, the wedge probe already sees this signal as quiescent. The
   reverse order would let the probe find the worker "awake", park domain
   0, and then miss the worker's silent park — the all-parked deadlock.
   Lock order: a worker's signal lock may be held while taking domain 0's
   (inside [poke]); domain 0's is never held while taking another. *)
let wait ?(poke = ignore) s =
  Mutex.lock s.mu;
  if not s.hint then begin
    s.parked <- true;
    poke ();
    Condition.wait s.cond s.mu;
    s.parked <- false
  end;
  s.hint <- false;
  Mutex.unlock s.mu

let mark_exited s =
  Mutex.lock s.mu;
  s.exited <- true;
  Mutex.unlock s.mu

let signal_exited s =
  Mutex.lock s.mu;
  let r = s.exited in
  Mutex.unlock s.mu;
  r

(* Quiet in a way the domain cannot leave on its own: parked with no
   wakeup pending, or gone. *)
let quiescent s =
  Mutex.lock s.mu;
  let r = s.exited || (s.parked && not s.hint) in
  Mutex.unlock s.mu;
  r

(* ---------------- shared run state -------------------------------------- *)

type shared = {
  stop : bool Atomic.t;
  error : string option Atomic.t;
  signals : signal array;  (* one per partition; index 0 = packet-path domain *)
  cross : Channel.t list;  (* the blocking edges, closed on abort *)
  hb_mu : Mutex.t;
  mutable hb_pending : Node.t list;  (* source nodes awaiting a heartbeat *)
}

let make_shared ~partitions ~cross =
  {
    stop = Atomic.make false;
    error = Atomic.make None;
    signals = Array.init partitions (fun _ -> make_signal ());
    cross;
    hb_mu = Mutex.create ();
    hb_pending = [];
  }

let signals shared = shared.signals

(* Record the first error, then stop everything: set the flag, unblock
   producers stuck on full channels, and wake every parked domain.
   Closing the channels is what lets an error propagate out of a crashed
   domain — its peers would otherwise block forever pushing into (or
   waiting on) its edges. *)
let fail shared msg =
  ignore (Atomic.compare_and_set shared.error None (Some msg));
  Atomic.set shared.stop true;
  List.iter Channel.close shared.cross;
  Array.iter notify shared.signals

let error shared = Atomic.get shared.error
let stopped shared = Atomic.get shared.stop

let all_workers_exited shared =
  let ok = ref true in
  Array.iteri (fun i s -> if i > 0 && not (signal_exited s) then ok := false) shared.signals;
  !ok

let seq_sum shared =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.mu;
      let v = s.seq in
      Mutex.unlock s.mu;
      acc + v)
    0 shared.signals

(* Termination detection for domain 0: true only when the run is provably
   frozen — every worker parked (having announced the park via its poke)
   or exited, no queued heartbeat request, no wakeup pending for domain 0
   itself, and no notify anywhere during the probe (stable [seq] sum).
   Soundness: a false positive needs some domain awake at declare time;
   it was observed quiescent mid-probe, so a notify must have woken it,
   and any notify either leaves its hint set (the quiescent check fails)
   or bumps a seq (the stability check fails). Liveness: the last domain
   to go quiet always pokes domain 0 (the [wait ~poke] protocol), which
   re-runs this probe. *)
let probe_wedged shared =
  let a1 = seq_sum shared in
  let workers_quiet =
    let ok = ref true in
    Array.iteri (fun i s -> if i > 0 && not (quiescent s) then ok := false) shared.signals;
    !ok
  in
  let hb_empty =
    Mutex.lock shared.hb_mu;
    let e = shared.hb_pending = [] in
    Mutex.unlock shared.hb_mu;
    e
  in
  let own_idle =
    let s = shared.signals.(0) in
    Mutex.lock s.mu;
    let r = not s.hint in
    Mutex.unlock s.mu;
    r
  in
  workers_quiet && hb_empty && own_idle && seq_sum shared = a1

(* ---------------- cross-domain heartbeat requests ------------------------ *)

(* A blocked HFTA on a worker domain cannot fire source clocks itself:
   sources live on domain 0 and their state (feed cursor, last_ts) is not
   synchronized. The worker walks its upstream cone (wiring is frozen at
   spawn, so the walk is a pure read), queues the source nodes here, and
   pokes domain 0, which fires the heartbeats between rounds. *)
let rec collect_sources visited acc node =
  if List.memq node !visited then acc
  else begin
    visited := node :: !visited;
    if Node.kind node = Node.Source then node :: acc
    else Array.fold_left (fun acc (up, _) -> collect_sources visited acc up) acc (Node.inputs node)
  end

let request_heartbeat shared node =
  let sources = collect_sources (ref []) [] node in
  if sources <> [] then begin
    Mutex.lock shared.hb_mu;
    shared.hb_pending <- sources @ shared.hb_pending;
    Mutex.unlock shared.hb_mu;
    notify shared.signals.(0)
  end

let take_heartbeats shared =
  Mutex.lock shared.hb_mu;
  let pending = shared.hb_pending in
  shared.hb_pending <- [];
  Mutex.unlock shared.hb_mu;
  (* dedupe: a merge blocked on two silent inputs queues a source twice *)
  List.fold_left (fun acc n -> if List.memq n acc then acc else n :: acc) [] pending

(* ---------------- stepping ---------------------------------------------- *)

(* One pass over a domain's nodes, shared by domain 0 and the workers:
   a source pulls a quantum, a query node consumes up to a quantum from
   each input; [timed] records each step's service time. *)
let pass ~quantum ~timed nodes =
  List.fold_left
    (fun moved node ->
      let t0 = if timed then Clock.now_ns () else 0.0 in
      let m =
        match Node.kind node with
        | Node.Source -> Node.step_source node ~quantum
        | Node.Lfta | Node.Hfta -> Node.step_inputs node ~quantum
      in
      if timed then Node.record_service node (Clock.now_ns () -. t0);
      m || moved)
    false nodes

(* A domain is done once every node it steps has emitted its Eof and
   drained its inputs. A poisoned node announces Error+Eof (and so reads
   as exhausted) while its upstream may still be producing. If a worker
   exited the moment its drain caught up, that producer would block
   forever pushing into a full blocking channel nobody pops — and a
   producer blocked mid-push is not parked, so the wedge probe cannot
   see it. So a poisoned node also waits for every upstream to be
   exhausted. Non-poisoned nodes only emit Eof after consuming their
   inputs' Eofs, so for them the extra condition already holds. *)
let finished nodes =
  List.for_all
    (fun n ->
      Node.exhausted n
      && Array.for_all (fun (_, chan) -> Channel.is_empty chan) (Node.inputs n)
      && ((not (Node.is_poisoned n))
         || Array.for_all (fun ((up : Node.t), _) -> Node.exhausted up) (Node.inputs n)))
    nodes

(* ---------------- worker domain loop ------------------------------------ *)

type t = {
  id : int;  (* partition index, >= 1 *)
  nodes : Node.t list;  (* this domain's HFTAs, in topological order *)
  quantum : int;
  heartbeats : bool;
  sample : int;  (* service-time sampling period *)
}

let make ~id ~nodes ~quantum ~heartbeats ~sample = { id; nodes; quantum; heartbeats; sample }

let run_loop shared r =
  let my_signal = shared.signals.(r.id) in
  let poke0 () = notify shared.signals.(0) in
  let iter = ref 0 in
  let continue = ref true in
  while !continue && not (Atomic.get shared.stop) do
    incr iter;
    let timed = (!iter - 1) mod r.sample = 0 in
    let progress = pass ~quantum:r.quantum ~timed r.nodes in
    (* Same policy as domain 0: consult blocked inputs every iteration,
       not just when parked — an operator can keep absorbing one input
       while starving on another (a merge over skewed streams), and only
       the heartbeat bounds its buffer. *)
    if r.heartbeats then
      List.iter
        (fun node ->
          match Node.blocked_input node with
          | Some i ->
              let up, _ = (Node.inputs node).(i) in
              request_heartbeat shared up
          | None -> ())
        r.nodes;
    if not progress then begin
      if finished r.nodes then continue := false
      else
        (* Park until an input channel is pushed, a requested heartbeat's
           punctuation arrives, or the run aborts. Waiting only when every
           input is empty keeps the network deadlock-free: the producer of
           a full channel never waits on its own consumer. The poke tells
           domain 0 to re-run its wedge probe — a run where every domain
           parks like this must end in an error, not a hang. *)
        wait ~poke:poke0 my_signal
    end
  done;
  (* Domain 0's completion and wedge checks both wait on worker exits;
     announce ours even on abort. *)
  mark_exited my_signal;
  poke0 ()

let spawn shared r =
  Domain.spawn (fun () ->
      try run_loop shared r
      with e ->
        let names = String.concat "," (List.map Node.name r.nodes) in
        mark_exited shared.signals.(r.id);
        fail shared
          (Printf.sprintf "domain %d (%s): %s" r.id names (Printexc.to_string e)))
