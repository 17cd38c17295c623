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
   domains, then heartbeat on/off, a quantum sweep, pinned placements,
   and repeated runs of the same parallel configuration (the OS schedules
   domains differently every time — free interleaving fuzz). *)

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
   coast to EOF), and aggressive periodic heartbeats, both on domains *)
let test_heartbeat_variants w () =
  let seed = 42 in
  let baseline, _ = exec w ~seed ~parallel:1 () in
  let no_hb, _ = exec w ~seed ~parallel:2 ~heartbeats:false () in
  assert_same ~label:(w.wname ^ " heartbeats=off") baseline no_hb;
  let periodic, _ = exec w ~seed ~parallel:2 ~heartbeat_period:25 () in
  assert_same ~label:(w.wname ^ " heartbeat_period=25") baseline periodic

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

(* explicit pinning must only change placement, never output *)
let test_placement_pinned () =
  let w = List.find (fun w -> w.wname = "tcpdest") workloads in
  let seed = 42 in
  let baseline, _ = exec w ~seed ~parallel:1 ~shards:1 () in
  let pinned, _ =
    exec w ~seed ~parallel:3 ~shards:1 ~placement:[("portcounts", 2); ("tcpdest0", 1)] ()
  in
  assert_same ~label:"tcpdest pinned placement" baseline pinned;
  (* unknown node names must be rejected, not ignored *)
  let engine = E.create ~shards:1 () in
  w.setup ~seed engine;
  ignore (Result.get_ok (E.install_program engine (w.program ())));
  match E.run engine ~parallel:2 ~placement:[("no_such_node", 1)] () with
  | Ok _ -> Alcotest.fail "placement of unknown node accepted"
  | Error e -> check Alcotest.bool "error names the node" true (contains e "no_such_node")

(* the DEFINE { placement N; } property lands on the query's HFTAs *)
let test_placement_property () =
  let engine = E.create () in
  eth0_setup ~rate:10.0 ~duration:0.2 ~seed:1 engine;
  ignore
    (Result.get_ok
       (E.install_program engine
          {| DEFINE { query_name pinned_q; placement 2; }
             SELECT tb, count(*) as c FROM eth0.tcp
             WHERE protocol = 6 GROUP BY time/1 as tb |}));
  let mgr = E.manager engine in
  (match Rts.Manager.find mgr "pinned_q" with
  | Some node ->
      check
        Alcotest.(option int)
        "hfta pinned" (Some 2) (Rts.Node.placement node)
  | None -> Alcotest.fail "pinned_q not registered");
  match Rts.Manager.find mgr "_lfta_pinned_q" with
  | Some node ->
      check Alcotest.(option int) "lfta not pinned" None (Rts.Node.placement node)
  | None -> Alcotest.fail "_lfta_pinned_q not registered"

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

(* the default partition is a pipeline: every cross-domain edge ascends,
   so the domain graph cannot contain the blocking cycle above *)
let test_partition_pipeline () =
  let engine = E.create ~shards:1 () in
  chain_workload.setup ~seed:42 engine;
  ignore (Result.get_ok (E.install_program engine chain_program));
  let nodes = Rts.Manager.nodes (E.manager engine) in
  match Rts.Scheduler.partition ~domains:3 nodes with
  | Error e -> Alcotest.fail e
  | Ok parts ->
      let dom_of name =
        let d = ref (-1) in
        Array.iteri
          (fun i ns -> if List.exists (fun n -> Rts.Node.name n = name) ns then d := i)
          parts;
        !d
      in
      List.iter
        (fun n ->
          match Rts.Node.kind n with
          | Rts.Node.Source | Rts.Node.Lfta ->
              check Alcotest.int (Rts.Node.name n ^ " on domain 0") 0 (dom_of (Rts.Node.name n))
          | Rts.Node.Hfta -> ())
        nodes;
      List.iter
        (fun n ->
          let dn = dom_of (Rts.Node.name n) in
          Array.iter
            (fun (up, _) ->
              let du = dom_of (Rts.Node.name up) in
              if du <> dn then
                check Alcotest.bool
                  (Printf.sprintf "edge %s(dom %d) -> %s(dom %d) ascends" (Rts.Node.name up) du
                     (Rts.Node.name n) dn)
                  true (du < dn))
            (Rts.Node.inputs n))
        nodes;
      let used =
        List.length (List.filter (fun ns -> ns <> []) (List.tl (Array.to_list parts)))
      in
      check Alcotest.bool "chain still spans multiple workers" true (used >= 2)

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

(* pinning a mid-chain stage onto the packet-path domain below its
   worker upstream closes a domain-level cycle (0 -> worker -> 0); the
   run must refuse up front, not hang *)
let test_cyclic_placement_rejected () =
  let engine = E.create () in
  chain_workload.setup ~seed:42 engine;
  ignore (Result.get_ok (E.install_program engine chain_program));
  match E.run engine ~parallel:2 ~placement:[("c3", 0)] () with
  | Ok _ -> Alcotest.fail "cyclic placement accepted"
  | Error e -> check Alcotest.bool ("error names the cycle: " ^ e) true (contains e "cycle")

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
      ( "placement",
        [tc "pinned nodes" test_placement_pinned; tc "define property" test_placement_property] );
      ( "partitioning & liveness",
        [
          tc "pipeline partition is acyclic" test_partition_pipeline;
          tc "hfta chain does not deadlock" test_chain_no_deadlock;
          tc "cyclic placement rejected" test_cyclic_placement_rejected;
          tc "wedge detected, not hung" test_wedge_detected;
          tc "xchannel close releases a blocked push" test_xchannel_close_releases_blocked_push;
          tc "injected xchannel close terminates" test_xchannel_injected_close_terminates;
          tc "one-domain partition" test_partition_one_domain;
          tc "on_round forces one domain" test_on_round_forces_one_domain;
          tc "crash is an error at any domain count" test_crash_is_error;
        ] );
      ("multi-query", [tc "two domains, no drops" test_multi_query_no_drops]);
    ]
