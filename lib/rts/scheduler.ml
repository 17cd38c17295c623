module Metrics = Gigascope_obs.Metrics

type stats = { rounds : int; heartbeat_requests : int }

let ( let* ) = Result.bind

(* Service-time sampling period outside trace mode: timing every round
   costs two clock reads per node per round, which the 5%-overhead budget
   on the hot path does not allow. *)
let default_service_sample = 8

let rec walk_upstream visited node =
  if not (List.memq node !visited) then begin
    visited := node :: !visited;
    if Node.kind node = Node.Source then Node.heartbeat node
    else Array.iter (fun (up, _) -> walk_upstream visited up) (Node.inputs node)
  end

let request_heartbeat node =
  let visited = ref [] in
  walk_upstream visited node

(* Partition the network over [domains] execution domains: sources and
   LFTAs stay on domain 0 (the paper's runtime process, which owns the
   packet path and the source clocks), HFTAs are spread over the
   [domains - 1] worker domains.

   The spread must be acyclic at the {e domain} level: cross-domain
   channels block when full ({!Channel.set_blocking}), and a domain blocked
   mid-push cannot step its other nodes, so a ring of domains each
   pushing into the next's full input is a permanent deadlock no
   heartbeat can break (naive round-robin creates one as soon as a chain
   of three HFTAs wraps back onto an earlier worker). HFTAs are
   therefore assigned as pipeline stages, in topological order: an HFTA
   fed only by domain 0 starts a pipeline on the next worker
   (round-robin for load spread); an HFTA downstream of other HFTAs
   lands one worker above its highest upstream, saturating at the last
   worker. A shard replica reads only its source, so it may sit on any
   worker. Every cross edge then goes from domain 0 into a worker or
   from a lower- to a strictly higher-numbered worker — a DAG by
   construction, and in a domain-level DAG the topologically last
   blocked domain always has a consumer that drains it. *)
let partition ~domains nodes =
  if domains <= 1 then Ok [| nodes |]
  else
  let n_workers = domains - 1 in
  let dom = Hashtbl.create 32 in
  let parts = Array.make domains [] in
  let next = ref 0 in
  List.iter
    (fun node ->
      let d =
        match (Node.kind node, Node.shard node) with
        | Node.Source, _ -> 0
        (* A shard replica goes to the worker owning its shard index,
           even when its kind is Lfta: the whole point of sharding is
           taking the per-tuple work off the packet-path domain. Shard s
           -> worker 1 + (s mod workers), so distinct shards land on
           distinct workers when there are enough. *)
        | (Node.Lfta | Node.Hfta), Some s -> 1 + (s mod n_workers)
        | Node.Lfta, None -> 0
        | Node.Hfta, None ->
            let upstream_floor =
              Array.fold_left
                (fun acc (up, _) ->
                  match Hashtbl.find_opt dom (Node.name up) with
                  | Some d -> max acc d
                  | None -> acc)
                0 (Node.inputs node)
            in
            if upstream_floor = 0 then begin
              let p = 1 + (!next mod n_workers) in
              incr next;
              p
            end
            else min (upstream_floor + 1) n_workers
      in
      Hashtbl.replace dom (Node.name node) d;
      parts.(d) <- node :: parts.(d))
    nodes;
  Ok (Array.map List.rev parts)

let run ?quantum ?(max_rounds = 10_000_000) ?(heartbeats = true) ?on_round ?(trace = false)
    ?(domains = 1) ?(batch = 1) ?supervisor ?shed ?(latency_sample = 0) ?(state_slack = 0.0) mgr =
  (* A quantum smaller than the batch flushes every output builder before
     it fills, so the *default* quantum floors at the batch — the knobs
     compose. An explicit quantum wins: callers pinning the scheduling
     granularity (round-indexed hooks, granularity sweeps) keep the round
     structure they asked for, at the price of partial batches. *)
  let quantum = match quantum with Some q -> q | None -> max 64 batch in
  (* on_round hooks mutate live operator state (set_param, flush) from
     the caller; racing them against worker domains is unsound, so a
     hook keeps the run on one domain. *)
  let domains = if on_round <> None then 1 else max 1 domains in
  let nodes = Manager.nodes mgr in
  let* parts = partition ~domains nodes in
  Manager.start mgr;
  let reg = Manager.metrics mgr in
  let rounds_c = Metrics.counter reg "rts.scheduler.rounds" in
  let hb_c = Metrics.counter reg "rts.scheduler.heartbeat_requests" in
  let sample = if trace then 1 else default_service_sample in
  let gauge name v = Metrics.Gauge.set_int (Metrics.gauge reg ("rts.scheduler." ^ name)) v in
  gauge "service_sample" sample;
  gauge "domains" domains;
  gauge "batch" (max 1 batch);
  gauge "latency_sample" (max 0 latency_sample);
  List.iter
    (fun n ->
      Node.set_batch n batch;
      Node.set_supervisor n supervisor;
      Node.set_shed n shed;
      Node.set_latency_sample n latency_sample;
      Node.set_state_slack n state_slack)
    nodes;
  (match supervisor with Some s -> Supervisor.register_metrics s reg | None -> ());
  (* Every edge whose endpoints sit on different domains, with the
     consumer's domain. One domain has none. *)
  let domain_of = Hashtbl.create 32 in
  Array.iteri (fun d ns -> List.iter (fun n -> Hashtbl.replace domain_of (Node.name n) d) ns) parts;
  let cross =
    List.concat_map
      (fun node ->
        let d = Hashtbl.find domain_of (Node.name node) in
        List.filter_map
          (fun ((up : Node.t), chan) ->
            if Hashtbl.find domain_of (Node.name up) <> d then Some (chan, d) else None)
          (Array.to_list (Node.inputs node)))
      nodes
  in
  let shared = Domain_runner.make_shared ~partitions:domains ~cross:(List.map fst cross) in
  let signals = Domain_runner.signals shared in
  (* Switch the cross edges into blocking mode before any domain spawns,
     so metric registration and the consumer-wakeup hooks are race-free.
     The limit is small on purpose: a deep channel lets the producer
     domain run unboundedly ahead, and a downstream merge/join then
     buffers that whole lead before its heartbeat punctuation catches
     up. It leaves room for two full batches, or a producer ping-pongs
     against the bound on every push. *)
  List.iter
    (fun (chan, d) ->
      let limit = min (Channel.capacity chan) (max (max (4 * quantum) 64) (2 * batch)) in
      if Channel.set_blocking chan ~limit ~on_push:(fun () -> Domain_runner.notify signals.(d))
      then Manager.register_xchannel_metrics mgr chan)
    cross;
  let handles =
    List.filter_map
      (fun id ->
        match parts.(id) with
        | [] ->
            (* no domain will ever own this signal; count it done for
               the completion and wedge checks *)
            Domain_runner.mark_exited signals.(id);
            None
        | ns ->
            Some
              (Domain_runner.spawn shared
                 (Domain_runner.make ~id ~nodes:ns ~quantum ~heartbeats ~sample)))
      (List.init (domains - 1) (fun i -> i + 1))
  in
  (* Domain 0 — the caller, and the only domain of a one-domain run —
     owns the sources and LFTAs. Besides stepping them it fires
     heartbeats, both for its own blocked nodes and for those the
     workers queue, since it owns the source clocks, and it stays in the
     loop until every worker has exited, so the final join never waits
     on a parked domain.

     [iter] counts scheduling iterations (max_rounds guard, sampling,
     the on_round hook); [rounds] counts only the productive ones —
     iterations in which some node actually moved an item. The two
     diverge when every node is blocked awaiting heartbeats
     (punctuation-only iterations) and on the final wedged iteration, so
     the [rts.scheduler.rounds] metric tracks observable progress. *)
  let mine = parts.(0) in
  let downstream = List.filter (fun n -> Node.kind n <> Node.Source) mine in
  let iter = ref 0 in
  let rounds = ref 0 in
  let heartbeat_requests = ref 0 in
  let finished () = Domain_runner.finished mine && Domain_runner.all_workers_exited shared in
  let loop () =
    let result = ref None in
    while !result = None do
      if Domain_runner.stopped shared then
        result :=
          Some
            (Error (Option.value (Domain_runner.error shared) ~default:"scheduler: run aborted"))
      else if finished () then
        result := Some (Ok { rounds = !rounds; heartbeat_requests = !heartbeat_requests })
      else if !iter >= max_rounds then
        result := Some (Error (Printf.sprintf "scheduler: no completion after %d rounds" max_rounds))
      else begin
        incr iter;
        let timed = (!iter - 1) mod sample = 0 in
        let progress = Domain_runner.pass ~quantum ~timed mine in
        (* Drain before the next source pull: an epoch-boundary table
           flush can far exceed one quantum, and pulling more packets
           before it reaches the subscribers only delays its results.
           Each pass keeps the per-step quantum; the passes stop when no
           node moves. *)
        while progress && Domain_runner.pass ~quantum ~timed downstream do
          ()
        done;
        if progress then begin
          incr rounds;
          Metrics.Counter.incr rounds_c
        end;
        let hb_fired = ref false in
        let requested () =
          incr heartbeat_requests;
          Metrics.Counter.incr hb_c;
          hb_fired := true
        in
        if heartbeats then
          List.iter
            (fun node ->
              match Node.blocked_input node with
              | Some i ->
                  requested ();
                  request_heartbeat (fst (Node.inputs node).(i))
              | None -> ())
            mine;
        List.iter
          (fun src ->
            requested ();
            Node.heartbeat src)
          (Domain_runner.take_heartbeats shared);
        (match on_round with Some f -> f !iter | None -> ());
        (* A heartbeat pushes punctuation into channels, so it counts as
           progress for the next round. Otherwise quiet is not
           necessarily a wedge: a worker may be mid-quantum or about to
           queue a heartbeat request. But if the probe shows every domain
           parked with nothing pending anywhere (with no workers: at
           once), nobody will ever wake anybody — report the wedge.
           Otherwise park until a worker pokes us (heartbeat queue, its
           own park or exit, or an abort). *)
        if (not progress) && (not !hb_fired) && not (finished ()) then begin
          if Domain_runner.probe_wedged shared then
            result := Some (Error "scheduler: wedged (no progress, not finished)")
          else Domain_runner.wait signals.(0)
        end
      end
    done;
    match !result with Some r -> r | None -> assert false
  in
  (* Any exception escaping a step (no supervisor, or a Fail_fast
     escalation) becomes this run's error, at every domain count. On
     error, unblock everyone before joining; on success every worker has
     already exited its loop (finished waits for that), so the joins
     return promptly. *)
  let res = try loop () with e -> Error (Printexc.to_string e) in
  (match res with Error msg -> Domain_runner.fail shared msg | Ok _ -> ());
  List.iter Domain.join handles;
  match (res, Domain_runner.error shared) with
  | _, Some msg -> Error msg
  | res, None -> res
