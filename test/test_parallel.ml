(* The parallel-execution determinism harness.

   Every workload below runs twice over the SAME generated traffic: once
   on the single-threaded scheduler, once on N OCaml domains via
   Engine.run ~parallel. The subscriber output of every query must be
   byte-identical — not multiset-equal, identical in order — because the
   runtime's claim (Scheduler.run's doc) is that operator output
   depends only on per-channel input tuple order, never on punctuation
   timing or domain interleaving.

   The matrix: every example query from queries/ (plus an ordered-output
   join program, the hardest case) × three generator seeds × 2 and 3
   domains, then heartbeats off, a quantum sweep, and repeated runs of
   the same parallel configuration (the OS schedules domains differently
   every time — free interleaving fuzz). Then the partition the
   scheduler derives from the graph: every placement rule, over plain and
   sharded networks, and liveness of the blocking cross-domain edges. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Value = Rts.Value
module Traffic = Gigascope_traffic
module Packet = Gigascope_packet.Packet
module Ipaddr = Gigascope_packet.Ipaddr

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The workload matrix and runner are shared with the batch-size
   differential in test_fuzz.ml. *)
open Workloads

(* every workload, >= 3 seeds, single vs 2 and 3 domains *)
let test_differential w () =
  List.iter
    (fun seed ->
      let baseline, _ = exec w ~seed ~parallel:1 () in
      List.iter
        (fun domains ->
          let got, _ = exec w ~seed ~parallel:domains () in
          assert_same
            ~label:(Printf.sprintf "%s seed=%d domains=%d" w.wname seed domains)
            baseline got)
        [2; 3])
    [11; 42; 77]

(* punctuation-timing insensitivity: heartbeats off entirely (operators
   coast to EOF), on domains *)
let test_heartbeat_variants w () =
  let seed = 42 in
  let baseline, _ = exec w ~seed ~parallel:1 () in
  let no_hb, _ = exec w ~seed ~parallel:2 ~heartbeats:false () in
  assert_same ~label:(w.wname ^ " heartbeats=off") baseline no_hb

(* scheduling-granularity insensitivity: the quantum changes how much of
   each stream is in flight at once, hence every interleaving *)
let test_quantum_sweep w () =
  let seed = 42 in
  let baseline, _ = exec w ~seed ~parallel:1 () in
  List.iter
    (fun q ->
      let single, _ = exec w ~seed ~parallel:1 ~quantum:q () in
      assert_same ~label:(Printf.sprintf "%s single quantum=%d" w.wname q) baseline single;
      let par, _ = exec w ~seed ~parallel:2 ~quantum:q () in
      assert_same ~label:(Printf.sprintf "%s parallel quantum=%d" w.wname q) baseline par)
    [1; 7; 512]

(* same config, repeated: the OS interleaves the domains differently on
   every run, so repetition is interleaving fuzz *)
let test_repeated_stress w () =
  let seed = 42 in
  let baseline, _ = exec w ~seed ~parallel:1 () in
  for i = 1 to 4 do
    let got, _ = exec w ~seed ~parallel:3 () in
    assert_same ~label:(Printf.sprintf "%s stress run %d" w.wname i) baseline got
  done

(* --------------------- partitioning & liveness -------------------------- *)

(* A linear pipeline of HFTAs: the shape that deadlocked under naive
   round-robin placement once the chain wrapped back onto an earlier
   worker (stages 1 and 3 on worker 1, stage 2 on worker 2: each domain
   blocks mid-push into the other's full cross channel and neither can
   drain the one its peer waits on). The per-packet selects keep the
   tuple volume far above the cross-channel capacity. *)
let chain_program =
  {|
  DEFINE { query_name c1; } SELECT time, srcip FROM eth0.ip WHERE ipversion = 4
  DEFINE { query_name c2; } SELECT time, srcip FROM c1 WHERE time >= 0
  DEFINE { query_name c3; } SELECT time, srcip FROM c2 WHERE time >= 0
  DEFINE { query_name c4; } SELECT time, srcip FROM c3 WHERE time >= 0
|}

let chain_workload =
  {
    wname = "hfta_chain";
    program = (fun () -> chain_program);
    setup = eth0_setup ~rate:40.0 ~duration:1.0;
    outputs = ["c4"];
    params = [];
  }

(* A keyed and a keyless sub-aggregation and a select, each of which
   shards into replicas behind a reunification merge, plus an HFTA
   reading the keyed one's output. *)
let sharded_program =
  {|
  DEFINE { query_name keyed; }
  SELECT tb, srcip, count(*) as cnt FROM eth0.tcp GROUP BY time/1 as tb, srcip
  DEFINE { query_name keyless; }
  SELECT tb, count(*) as cnt FROM eth0.tcp GROUP BY time/1 as tb
  DEFINE { query_name sel; }
  SELECT time, destport FROM eth0.tcp WHERE protocol = 6
  DEFINE { query_name keyed_total; }
  SELECT tb, sum(cnt) as total FROM keyed GROUP BY tb
|}

(* The partition, rule by rule: sources and unsharded LFTAs on domain 0;
   the replica of shard s on worker 1 + s mod workers; the k-th HFTA fed
   only from domain 0 on worker 1 + k mod workers; any other HFTA one
   worker above its highest upstream, saturating at the last. So every
   cross-domain edge ascends, and the domain graph cannot contain the
   blocking cycle above. *)
let test_partition_pipeline () =
  let networks =
    [
      ("hfta chain", chain_program, 1);
      ("sharded x2", sharded_program, 2);
      ("sharded x3", sharded_program, 3);
    ]
  in
  List.iter
    (fun (net, program, shards) ->
      let engine = E.create ~shards () in
      chain_workload.setup ~seed:42 engine;
      ignore (Result.get_ok (E.install_program engine program));
      let nodes = Rts.Manager.nodes (E.manager engine) in
      let replicas = List.filter (fun n -> Rts.Node.shard n <> None) nodes in
      check Alcotest.int (net ^ ": three sharded queries") (if shards > 1 then 3 * shards else 0)
        (List.length replicas);
      List.iter
        (fun domains ->
          let workers = domains - 1 in
          let label = Printf.sprintf "%s, %d domains" net domains in
          let parts =
            match Rts.Scheduler.partition ~domains nodes with
            | Ok parts -> parts
            | Error e -> Alcotest.fail e
          in
          let dom = Hashtbl.create 32 in
          Array.iteri
            (fun d ns -> List.iter (fun n -> Hashtbl.replace dom (Rts.Node.name n) d) ns)
            parts;
          let dom_of n = Hashtbl.find dom (Rts.Node.name n) in
          check Alcotest.int (label ^ ": every node placed once") (List.length nodes)
            (Array.fold_left (fun acc ns -> acc + List.length ns) 0 parts);
          let fed_from_0 = ref 0 in
          List.iter
            (fun n ->
              let what = Printf.sprintf "%s: %s" label (Rts.Node.name n) in
              let ups = Array.to_list (Rts.Node.inputs n) in
              let expected =
                match (Rts.Node.kind n, Rts.Node.shard n) with
                | _, Some s -> 1 + (s mod workers)
                | (Rts.Node.Source | Rts.Node.Lfta), None -> 0
                | Rts.Node.Hfta, None -> (
                    match List.fold_left (fun acc (up, _) -> max acc (dom_of up)) 0 ups with
                    | 0 ->
                        incr fed_from_0;
                        1 + ((!fed_from_0 - 1) mod workers)
                    | floor -> min (floor + 1) workers)
              in
              check Alcotest.int (what ^ " domain") expected (dom_of n);
              List.iter
                (fun (up, _) ->
                  let du = dom_of up and dn = dom_of n in
                  if du <> dn then
                    check Alcotest.bool
                      (Printf.sprintf "%s: edge %s(dom %d) -> %s(dom %d) ascends" label
                         (Rts.Node.name up) du (Rts.Node.name n) dn)
                      true (du < dn))
                ups)
            nodes;
          let used = List.length (List.filter (( <> ) []) (List.tl (Array.to_list parts))) in
          check Alcotest.bool (label ^ ": spans every worker") true (used = workers))
        [2; 3; 4])
    networks

(* end-to-end regression for the round-robin deadlock: a 3+-stage HFTA
   chain on 3 and 4 domains, with a small quantum so the 64-item cross
   channels fill, must complete and match the single-threaded output *)
let test_chain_no_deadlock () =
  List.iter
    (fun seed ->
      let baseline, _ = exec chain_workload ~seed ~parallel:1 ~quantum:4 () in
      List.iter
        (fun domains ->
          let got, _ = exec chain_workload ~seed ~parallel:domains ~quantum:4 () in
          assert_same
            ~label:(Printf.sprintf "hfta_chain seed=%d domains=%d" seed domains)
            baseline got)
        [2; 3; 4])
    [11; 42]

(* an operator that consumes everything but never emits its EOF wedges
   the network with nothing blocked on a heartbeat; the parallel
   scheduler must report the wedge like the single-threaded one instead
   of parking domain 0 forever *)
let test_wedge_detected () =
  let module Schema = Rts.Schema in
  let module Ty = Rts.Ty in
  let module Order_prop = Rts.Order_prop in
  let run_wedged ~parallel =
    let mgr = Rts.Manager.create () in
    let schema =
      Schema.make [ { Schema.name = "x"; ty = Ty.Int; order = Order_prop.Unordered } ]
    in
    let remaining = ref 5 in
    let source =
      {
        Rts.Node.pull =
          (fun () ->
            if !remaining > 0 then begin
              decr remaining;
              Some (Rts.Item.Tuple [| Value.Int !remaining |])
            end
            else None);
        clock = (fun () -> []);
      }
    in
    ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"src" ~schema source));
    let stuck =
      {
        Rts.Operator.on_tuple = (fun ~input:_ _ ~emit:_ -> ());
        on_batch_end = (fun ~emit:_ -> ());
        on_ctrl = (fun ~input:_ _ ~emit:_ -> ());
        blocked_input = (fun () -> None);
        buffered = (fun () -> 0);
        reset = None;
      }
    in
    ignore
      (Result.get_ok
         (Rts.Manager.add_query_node mgr ~name:"stuck" ~kind:Rts.Node.Hfta ~schema
            ~inputs:["src"] ~op:stuck));
    Rts.Scheduler.run ~domains:parallel mgr
  in
  List.iter
    (fun parallel ->
      match run_wedged ~parallel with
      | Ok _ -> Alcotest.fail (Printf.sprintf "wedge not detected (parallel=%d)" parallel)
      | Error e ->
          check Alcotest.bool
            (Printf.sprintf "parallel=%d reports the wedge: %s" parallel e)
            true (contains e "wedged"))
    [1; 2; 3]

(* close-while-producer-blocked-in-push: the producer domain is parked
   pushing into a full blocking channel when the consumer tears the
   channel down. close must release the waiter and the push must report
   rejection — a hang here deadlocked shutdown paths. *)
let test_xchannel_close_releases_blocked_push () =
  let chan = Rts.Channel.create ~capacity:4 ~name:"xc-close-race" () in
  ignore (Rts.Channel.set_blocking chan ~limit:4 ~on_push:ignore);
  for i = 1 to 4 do
    check Alcotest.bool "fill accepted" true (Rts.Channel.push chan (Rts.Item.Tuple [| Value.Int i |]))
  done;
  let released = Atomic.make false in
  let accepted = Atomic.make true in
  let producer =
    Thread.create
      (fun () ->
        let ok = Rts.Channel.push chan (Rts.Item.Tuple [| Value.Int 99 |]) in
        Atomic.set accepted ok;
        Atomic.set released true)
      ()
  in
  Thread.delay 0.05;
  check Alcotest.bool "producer is parked on the full channel" false (Atomic.get released);
  Rts.Channel.close chan;
  Thread.join producer (* hangs forever if close does not broadcast *);
  check Alcotest.bool "blocked push rejected after close" false (Atomic.get accepted);
  check Alcotest.int "the rejected tuple is a drop" 1 (Rts.Channel.drops chan);
  check Alcotest.bool "the wait was accounted" true (Rts.Channel.blocked_ns chan > 0)

(* same race, injected: a fault clause closes the channel out from under
   a push mid-run; the parallel run must still terminate *)
let test_xchannel_injected_close_terminates () =
  let plan = Result.get_ok (Rts.Faults.parse "xclose=c2->c3:5") in
  Rts.Faults.install plan;
  Fun.protect ~finally:Rts.Faults.clear (fun () ->
      match
        let engine = E.create () in
        chain_workload.setup ~seed:42 engine;
        ignore (Result.get_ok (E.install_program engine chain_program));
        E.run engine ~parallel:3 ~quantum:4 ()
      with
      | Ok _ | Error _ -> () (* either verdict is fine; hanging is not *))

(* partition ~domains:1 is the one-domain run: one part, every node in
   registration order — unsharded, and with the shard replicas that
   would otherwise go to workers *)
let test_partition_one_domain () =
  List.iter
    (fun shards ->
      let engine = E.create ~shards () in
      eth0_setup ~rate:10.0 ~duration:0.2 ~seed:1 engine;
      ignore
        (Result.get_ok
           (E.install_program engine
              "DEFINE { query_name q; } SELECT time, COUNT(*) FROM eth0.tcp GROUP BY time"));
      let nodes = Rts.Manager.nodes (E.manager engine) in
      match Rts.Scheduler.partition ~domains:1 nodes with
      | Error e -> Alcotest.fail e
      | Ok parts ->
          check Alcotest.int (Printf.sprintf "shards=%d: one part" shards) 1 (Array.length parts);
          check
            Alcotest.(list string)
            (Printf.sprintf "shards=%d: every node, in order" shards)
            (List.map Rts.Node.name nodes)
            (List.map Rts.Node.name parts.(0)))
    [1; 2]

(* a network of one source feeding one HFTA built from [op] *)
let one_hfta_manager op =
  let module Schema = Rts.Schema in
  let mgr = Rts.Manager.create () in
  let schema =
    Schema.make [ { Schema.name = "x"; ty = Rts.Ty.Int; order = Rts.Order_prop.Unordered } ]
  in
  let remaining = ref 50 in
  let source =
    {
      Rts.Node.pull =
        (fun () ->
          if !remaining > 0 then begin
            decr remaining;
            Some (Rts.Item.Tuple [| Value.Int !remaining |])
          end
          else None);
      clock = (fun () -> []);
    }
  in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"src" ~schema source));
  ignore
    (Result.get_ok
       (Rts.Manager.add_query_node mgr ~name:"h" ~kind:Rts.Node.Hfta ~schema ~inputs:["src"] ~op));
  mgr

let passthrough =
  {
    Rts.Operator.on_tuple = (fun ~input:_ row ~emit -> emit (Rts.Item.Tuple row));
    on_batch_end = (fun ~emit:_ -> ());
    on_ctrl = (fun ~input:_ item ~emit -> emit item);
    blocked_input = (fun () -> None);
    buffered = (fun () -> 0);
    reset = None;
  }

(* an on_round hook forces one domain: it runs after every iteration,
   and the run reports one domain *)
let test_on_round_forces_one_domain () =
  let mgr = one_hfta_manager passthrough in
  let calls = ref [] in
  (match Rts.Scheduler.run ~domains:2 ~quantum:4 ~on_round:(fun i -> calls := i :: !calls) mgr with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let calls = List.rev !calls in
  check Alcotest.bool "the hook ran" true (List.length calls > 1);
  check Alcotest.(list int) "once per iteration, in order"
    (List.init (List.length calls) (fun i -> i + 1))
    calls;
  match
    Gigascope_obs.Metrics.find
      (Gigascope_obs.Metrics.snapshot (Rts.Manager.metrics mgr))
      "rts.scheduler.domains"
  with
  | Some (Gigascope_obs.Metrics.Gauge v) -> check (Alcotest.float 0.0) "one domain" 1.0 v
  | _ -> Alcotest.fail "missing rts.scheduler.domains gauge"

(* without a supervisor, an exception escaping a step is the run's
   Error at every domain count, never an escaped exception *)
let test_crash_is_error () =
  List.iter
    (fun domains ->
      let crash = { passthrough with Rts.Operator.on_tuple = (fun ~input:_ _ ~emit:_ -> failwith "boom") } in
      match Rts.Scheduler.run ~domains (one_hfta_manager crash) with
      | Ok _ -> Alcotest.fail (Printf.sprintf "crash not reported (domains=%d)" domains)
      | Error e ->
          check Alcotest.bool (Printf.sprintf "domains=%d names the failure: %s" domains e) true
            (contains e "boom")
      | exception e ->
          Alcotest.fail (Printf.sprintf "domains=%d raised %s" domains (Printexc.to_string e)))
    [1; 2]

(* the e2-style acceptance run: several query networks at once on two
   domains — completes, zero dropped tuples, identical output *)
let test_multi_query_no_drops () =
  let program =
    String.concat "\n" [read_query "http_fraction"; read_query "subnet_volume"; read_query "tcpdest"]
  in
  let w =
    {
      wname = "multi_query";
      program = (fun () -> program);
      setup = eth0_setup ~rate:40.0 ~duration:1.0;
      outputs = ["port80"; "http80"; "subnet_volume"; "tcpdest0"; "portcounts"];
      params = [];
    }
  in
  let baseline, base_drops = exec w ~seed:42 ~parallel:1 () in
  check Alcotest.int "single-threaded drops" 0 base_drops;
  let got, drops = exec w ~seed:42 ~parallel:2 () in
  check Alcotest.int "parallel drops" 0 drops;
  assert_same ~label:"multi-query parallel=2" baseline got

let () =
  let tc name f = Alcotest.test_case name `Slow f in
  Alcotest.run "parallel"
    [
      ( "differential",
        List.map (fun w -> tc w.wname (test_differential w)) workloads );
      ( "heartbeat variants",
        List.map
          (fun n -> tc n (test_heartbeat_variants (List.find (fun w -> w.wname = n) workloads)))
          ["tcpdest"; "link_merge"; "ordered_join"] );
      ( "quantum sweep",
        List.map
          (fun n -> tc n (test_quantum_sweep (List.find (fun w -> w.wname = n) workloads)))
          ["link_merge"; "subnet_volume"] );
      ( "interleaving stress",
        List.map
          (fun n -> tc n (test_repeated_stress (List.find (fun w -> w.wname = n) workloads)))
          ["ordered_join"; "link_merge"] );
      ( "partitioning & liveness",
        [
          tc "pipeline partition is acyclic" test_partition_pipeline;
          tc "hfta chain does not deadlock" test_chain_no_deadlock;
          tc "wedge detected, not hung" test_wedge_detected;
          tc "xchannel close releases a blocked push" test_xchannel_close_releases_blocked_push;
          tc "injected xchannel close terminates" test_xchannel_injected_close_terminates;
          tc "one-domain partition" test_partition_one_domain;
          tc "on_round forces one domain" test_on_round_forces_one_domain;
          tc "crash is an error at any domain count" test_crash_is_error;
        ] );
      ("multi-query", [tc "two domains, no drops" test_multi_query_no_drops]);
    ]
