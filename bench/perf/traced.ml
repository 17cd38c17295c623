(* The traced run: spans recorded from the benchmark's side of the public
   API, so the engine under test is not modified to be measured.

   [run] mirrors Rts.Scheduler.run for one domain: topological
   round-robin over the manager's nodes, quantum [max 64 batch], every
   node's output batch set to [batch], and on-demand heartbeats for
   blocked inputs. Each node step is one span (time and minor-heap
   words); the benchmark's own feed and subscriber callbacks are child
   spans inside the source and subscriber steps. Operators' output
   depends only on their per-channel input sequences, so this driver
   must produce output byte-identical to Engine.run, and the benchmark
   checks that it does. *)

module Rts = Gigascope_rts
module Node = Rts.Node
module Clock = Gigascope_obs.Clock

type span = { mutable ns : float; mutable words : float; mutable n : int }

let span () = { ns = 0.0; words = 0.0; n = 0 }

let timed s f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let r = f () in
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  s.ns <- s.ns +. (t1 -. t0);
  s.words <- s.words +. (w1 -. w0);
  s.n <- s.n + 1;
  r

(* As [timed s (fun () -> f x)] without allocating the closure inside
   the enclosing span. *)
let timed1 s f x =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let r = f x in
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  s.ns <- s.ns +. (t1 -. t0);
  s.words <- s.words +. (w1 -. w0);
  s.n <- s.n + 1;
  r

(* What a probe costs. [inside] is what an empty span records (the
   part of the probe between its own two clock reads); [full] is the
   whole cost of one span to the code around it. *)
type probe = { inside_ns : float; inside_words : float; full_ns : float; full_words : float }

let calibrate () =
  let k = 20_000 in
  let s = span () in
  let nothing () = () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  for _ = 1 to k do
    timed s nothing
  done;
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  let k = float_of_int k in
  {
    inside_ns = s.ns /. k;
    inside_words = s.words /. k;
    full_ns = (t1 -. t0) /. k;
    full_words = (w1 -. w0) /. k;
  }

(* A span's own time and words, probe cost removed. *)
let true_ns p s = s.ns -. (float_of_int s.n *. p.inside_ns)
let true_words p s = s.words -. (float_of_int s.n *. p.inside_words)

(* What a parent span must give up for a child span nested in it: the
   child's own time plus the whole cost of the child's probe. *)
let nested_ns p s = true_ns p s +. (float_of_int s.n *. p.full_ns)
let nested_words p s = true_words p s +. (float_of_int s.n *. p.full_words)

type result = {
  wall_ns : float;
  steps : (Node.t * span) list;  (** measured step spans, children included *)
  scheduler : span;  (** completion checks and heartbeat requests *)
  rounds : int;
  heartbeat_requests : int;
}

let run ~batch mgr =
  Rts.Manager.start mgr;
  let nodes = Rts.Manager.nodes mgr in
  List.iter (fun n -> Node.set_batch n batch) nodes;
  let quantum = max 64 batch in
  let steps =
    List.map
      (fun node ->
        let step =
          match Node.kind node with
          | Node.Source -> fun () -> Node.step_source node ~quantum
          | Node.Lfta | Node.Hfta -> fun () -> Node.step_inputs node ~quantum
        in
        (node, span (), step))
      nodes
  in
  let sched = span () in
  let rounds = ref 0 and hb = ref 0 in
  let finished () =
    List.for_all
      (fun n ->
        Node.exhausted n && Array.for_all (fun (_, c) -> Rts.Channel.is_empty c) (Node.inputs n))
      nodes
  in
  let heartbeats () =
    List.fold_left
      (fun fired node ->
        match Node.blocked_input node with
        | Some i ->
            incr hb;
            Rts.Scheduler.request_heartbeat (fst (Node.inputs node).(i));
            true
        | None -> fired)
      false nodes
  in
  let t0 = Clock.now_ns () in
  let rec loop () =
    if timed sched finished then Ok ()
    else begin
      let progress = ref false in
      List.iter (fun (_, s, step) -> if timed s step then progress := true) steps;
      if !progress then incr rounds;
      let fired = timed sched heartbeats in
      if (not !progress) && (not fired) && not (finished ()) then
        Error "traced driver: wedged (no progress, not finished)"
      else loop ()
    end
  in
  let r = loop () in
  let wall_ns = Clock.now_ns () -. t0 in
  Result.map
    (fun () ->
      {
        wall_ns;
        steps = List.map (fun (n, s, _) -> (n, s)) steps;
        scheduler = sched;
        rounds = !rounds;
        heartbeat_requests = !hb;
      })
    r
