(* The failure model, proven under injected faults.

   Every test here follows the same claim: with faults armed, a run
   either converges to a correct (possibly explicitly partial) answer or
   terminates with an error naming the failure — it never hangs and it
   never loses tuples silently. Loss is always conserved somewhere
   visible: an [Item.Gap] marker, an [Item.Error] marker, a shed
   counter, or the run's error result.

   And with faults off, the whole failure apparatus must be invisible:
   supervision plus shedding disabled produce byte-identical output
   across batch sizes and domain counts. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Item = Rts.Item
module Value = Rts.Value
module Schema = Rts.Schema
module Ty = Rts.Ty
module Order_prop = Rts.Order_prop
module Faults = Rts.Faults
module Supervisor = Rts.Supervisor
module Metrics = Gigascope_obs.Metrics
module Addr = Gigascope_net.Addr
module Server = Gigascope_net.Server
module Client = Gigascope_net.Client

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Every test leaves the global fault plan clean for the next one. The
   spec is also exported through GIGASCOPE_FAULTS for the test's scope:
   [Engine.run] re-installs from the environment on every run, so a CI
   job that sets a global chaos spec (make ci) would otherwise clobber
   the plan this test depends on mid-test. *)
let with_faults spec body =
  (match Faults.parse spec with
  | Ok plan -> Faults.install plan
  | Error e -> Alcotest.failf "fault spec %S: %s" spec e);
  let saved = Sys.getenv_opt "GIGASCOPE_FAULTS" in
  Unix.putenv "GIGASCOPE_FAULTS" spec;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GIGASCOPE_FAULTS" (Option.value saved ~default:"");
      Faults.clear ())
    body

(* ------------------------------ fault specs ----------------------------- *)

let test_spec_round_trip () =
  let spec = "seed=7,crash=total:3,stall=xc:2:5.5,xclose=xc:1,torn=2,drop~0.25,delay=1:10,disconnect=4" in
  match Faults.parse spec with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      let printed = Faults.to_string plan in
      (match Faults.parse printed with
      | Error e -> Alcotest.failf "re-parse of %S: %s" printed e
      | Ok plan' ->
          check Alcotest.string "to_string is a fixpoint" printed (Faults.to_string plan'));
      check Alcotest.int "seed parsed" 7 plan.Faults.seed;
      check Alcotest.int "all clauses parsed" 7 (List.length plan.Faults.clauses)

let test_spec_rejects_garbage () =
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error e -> check Alcotest.bool (bad ^ " has a message") true (String.length e > 0))
    [
      "crash=3" (* targeted kind without a target *);
      "bogus=1" (* unknown kind *);
      "seed=x";
      "crash=n:0" (* hits count from 1 *);
      "drop~1.5" (* probability beyond 1 *);
      "delay=1:nope" (* bad milliseconds *);
      "crash" (* no mode at all *);
    ]

(* A point's visit counts once, however many clauses name it. *)
let test_nth_fires_exactly_once () =
  let visits_firing spec visit =
    with_faults spec (fun () -> List.filter visit (List.init 8 (fun i -> i + 1)))
  in
  let crash _ =
    (* other nodes never match the target *)
    Faults.crash_point ~node:"bystander";
    match Faults.crash_point ~node:"op" with () -> false | exception Faults.Injected _ -> true
  in
  check Alcotest.(list int) "fires on the 3rd hit only" [ 3 ] (visits_firing "crash=op:3" crash);
  check
    Alcotest.(list int)
    "a pair fires on the 3rd and the 5th hit" [ 3; 5 ]
    (visits_firing "crash=op:3,crash=op:5" crash);
  check
    Alcotest.(list int)
    "two connection clauses cut the 3rd and the 5th frame" [ 3; 5 ]
    (visits_firing "disconnect=3,disconnect=5" (fun _ ->
         Faults.send_point ~peer:"p" ~len:64 = Faults.Disconnect))

let test_prob_replays_for_seed () =
  let pattern () =
    with_faults "seed=5,drop~0.4" (fun () ->
        List.init 40 (fun _ -> Faults.send_point ~peer:"p" ~len:64 = Faults.Drop))
  in
  let a = pattern () in
  let b = pattern () in
  check Alcotest.(list bool) "same seed, same firing pattern" a b;
  check Alcotest.bool "something fired" true (List.mem true a);
  check Alcotest.bool "something passed" true (List.mem false a)

(* --------------------------- supervision -------------------------------- *)

let int_schema =
  Schema.make [ { Schema.name = "x"; ty = Ty.Int; order = Order_prop.Unordered } ]

let counting_source n =
  let remaining = ref n in
  {
    Rts.Node.pull =
      (fun () ->
        if !remaining > 0 then begin
          decr remaining;
          Some (Item.Tuple [| Value.Int (n - !remaining) |])
        end
        else None);
    clock = (fun () -> []);
  }

let passthrough ~restartable =
  let op = Rts.Select_op.make ~project:Option.some ~punct_map:[ (0, 0) ] () in
  if restartable then op else { op with Rts.Operator.reset = None }

(* src -> op -> collected items; returns the manager, the collector and
   the source node (for shed accounting) *)
let pipeline ?(name = "op") ?(n = 10) ~restartable () =
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"src" ~schema:int_schema (counting_source n)));
  ignore
    (Result.get_ok
       (Rts.Manager.add_query_node mgr ~name ~kind:Rts.Node.Hfta ~schema:int_schema
          ~inputs:[ "src" ] ~op:(passthrough ~restartable)));
  let items = ref [] in
  Result.get_ok (Rts.Manager.on_item mgr name (fun it -> items := it :: !items));
  (mgr, fun () -> List.rev !items)

let count_tuples items = List.length (List.filter Item.is_tuple items)
let gaps items = List.filter_map (function Item.Gap g -> Some g | _ -> None) items
let has_error items = List.exists (function Item.Error _ -> true | _ -> false) items

let test_fail_fast_names_the_node () =
  with_faults "crash=op:2" (fun () ->
      let mgr, _ = pipeline ~restartable:false () in
      let s = Supervisor.create ~policy:Supervisor.Fail_fast () in
      match Rts.Scheduler.run ~supervisor:s mgr with
      | Ok _ -> Alcotest.fail "crash did not fail the run"
      | Error e ->
          check Alcotest.bool ("error names the node: " ^ e) true (contains e "op");
          check Alcotest.bool "error names the injection" true (contains e "injected"))

let test_isolate_poisons_only_the_subtree () =
  with_faults "crash=opA:2" (fun () ->
      let mgr = Rts.Manager.create () in
      List.iter
        (fun (src, op) ->
          ignore
            (Result.get_ok (Rts.Manager.add_source mgr ~name:src ~schema:int_schema (counting_source 10)));
          ignore
            (Result.get_ok
               (Rts.Manager.add_query_node mgr ~name:op ~kind:Rts.Node.Hfta ~schema:int_schema
                  ~inputs:[ src ] ~op:(passthrough ~restartable:false))))
        [ ("srcA", "opA"); ("srcB", "opB") ];
      let got_a = ref [] and got_b = ref [] in
      Result.get_ok (Rts.Manager.on_item mgr "opA" (fun it -> got_a := it :: !got_a));
      Result.get_ok (Rts.Manager.on_item mgr "opB" (fun it -> got_b := it :: !got_b));
      let s = Supervisor.create ~policy:Supervisor.Isolate () in
      (match Rts.Scheduler.run ~supervisor:s mgr with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("isolate run must converge: " ^ e));
      let a = List.rev !got_a and b = List.rev !got_b in
      check Alcotest.bool "poisoned branch carries an explicit error" true (has_error a);
      check Alcotest.bool "poisoned branch still terminates (Eof)" true (List.mem Item.Eof a);
      check Alcotest.int "healthy branch unaffected" 10 (count_tuples b);
      check Alcotest.bool "supervisor records the poison" true
        (List.mem "opA" (Supervisor.poisoned s)))

let test_restart_within_budget () =
  with_faults "crash=op:3" (fun () ->
      let mgr, get = pipeline ~restartable:true ~n:10 () in
      let s = Supervisor.create ~policy:Supervisor.Restart () in
      (match Rts.Scheduler.run ~supervisor:s mgr with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("restart run must converge: " ^ e));
      let items = get () in
      check Alcotest.int "one restart consumed" 1 (Supervisor.restarts s);
      check Alcotest.bool "loss is announced as a gap" true (gaps items <> []);
      check Alcotest.bool "no poisoning" false (has_error items);
      (* the batch in flight at the crash is the only loss *)
      check Alcotest.int "all other tuples delivered" 9 (count_tuples items))

let test_restart_budget_exhausts_to_poison () =
  (* probability 1: the operator crashes on every single step *)
  with_faults "seed=1,crash~op:1" (fun () ->
      let mgr, get = pipeline ~restartable:true ~n:10 () in
      let s = Supervisor.create ~policy:Supervisor.Restart () in
      (match Rts.Scheduler.run ~supervisor:s mgr with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("exhausted-budget run must converge: " ^ e));
      let items = get () in
      check Alcotest.int "budget fully consumed" 3 (Supervisor.restarts s);
      check Alcotest.bool "then poisoned" true (has_error items);
      check Alcotest.bool "poison recorded" true (List.mem "op" (Supervisor.poisoned s));
      check Alcotest.bool "stream still terminates" true (List.mem Item.Eof items))

let test_stateful_operator_never_restarts () =
  with_faults "crash=op:2" (fun () ->
      let mgr, get = pipeline ~restartable:false ~n:10 () in
      let s = Supervisor.create ~policy:Supervisor.Restart () in
      (match Rts.Scheduler.run ~supervisor:s mgr with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("run must converge: " ^ e));
      let items = get () in
      check Alcotest.int "no restart for stateful state" 0 (Supervisor.restarts s);
      check Alcotest.bool "degrades to poison" true (has_error items))

(* ------------------------- parallel domains ------------------------------ *)

let tcpdest_workload () = Workloads.read_query "tcpdest"

let run_tcpdest ?supervise ?batch ?parallel () =
  let engine = E.create () in
  Workloads.eth0_setup ~rate:20.0 ~duration:0.5 ~seed:42 engine;
  (match E.install_program engine (tcpdest_workload ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let outputs = [ "tcpdest0"; "portcounts" ] in
  let collectors = List.map (fun n -> (n, Workloads.collect engine n)) outputs in
  let result = E.run engine ?supervise ?batch ?parallel () in
  (result, List.map (fun (n, get) -> (n, get ())) collectors)

let test_parallel_worker_crash_reported () =
  with_faults "crash=portcounts:5" (fun () ->
      (* portcounts is an HFTA: on 3 domains it crashes on a worker, and
         the failure must still surface as domain 0's run error *)
      match run_tcpdest ~supervise:Supervisor.Fail_fast ~parallel:3 () with
      | Ok _, _ -> Alcotest.fail "worker crash did not fail the run"
      | Error e, _ ->
          check Alcotest.bool ("error names the node: " ^ e) true (contains e "portcounts"))

let test_parallel_isolate_converges () =
  let (baseline, base_out) = run_tcpdest () in
  (match baseline with Ok _ -> () | Error e -> Alcotest.fail e);
  with_faults "crash=portcounts:5" (fun () ->
      match run_tcpdest ~supervise:Supervisor.Isolate ~parallel:3 () with
      | Error e, _ -> Alcotest.fail ("parallel isolate must converge: " ^ e)
      | Ok _, out ->
          (* the sibling query is untouched, byte for byte *)
          check
            Alcotest.(list string)
            "tcpdest0 unaffected by portcounts poisoning"
            (List.assoc "tcpdest0" base_out) (List.assoc "tcpdest0" out))

let test_parallel_stall_converges () =
  (* stalls in cross-domain pushes slow the run down but must not change
     its output or wedge it *)
  let (baseline, base_out) = run_tcpdest () in
  (match baseline with Ok _ -> () | Error e -> Alcotest.fail e);
  with_faults "stall=portcounts:3:5,stall=portcounts:9:5" (fun () ->
      match run_tcpdest ~parallel:3 () with
      | Error e, _ -> Alcotest.fail ("stalled run must converge: " ^ e)
      | Ok _, out ->
          List.iter
            (fun (name, rows) ->
              check Alcotest.(list string) (name ^ " identical under stalls")
                (List.assoc name base_out) rows)
            out)

let test_faults_off_differential () =
  (* the tentpole's invisibility claim: supervision armed, faults off,
     output byte-identical across the whole execution matrix *)
  let (r0, base) = run_tcpdest () in
  (match r0 with Ok _ -> () | Error e -> Alcotest.fail e);
  List.iter
    (fun (label, batch, parallel) ->
      let (r, out) =
        run_tcpdest ~supervise:Supervisor.Restart ?batch ?parallel ()
      in
      (match r with Ok _ -> () | Error e -> Alcotest.fail (label ^ ": " ^ e));
      List.iter
        (fun (name, rows) ->
          check Alcotest.(list string)
            (Printf.sprintf "%s %s byte-identical" label name)
            (List.assoc name base) rows)
        out)
    [ ("batch=64", Some 64, None); ("parallel=3", None, Some 3); ("batch=16 parallel=2", Some 16, Some 2) ]

(* --------------------------- sharded chains ------------------------------ *)

(* Failure inside ONE shard of a sharded chain: the fault machinery must
   treat a replica as just another node. Fail-fast names the replica;
   isolate poisons only that shard's cone — the sibling query in the
   same engine and the surviving shard keep working; a stall is delay
   only, so the reunified output is untouched; and a Gap entering the
   reunification merge is forwarded exactly once, payload intact. *)

let two_query_program () =
  Workloads.read_query "tcpdest" ^ "\n" ^ Workloads.read_query "subnet_volume"

(* tcpdest0 shards round-robin (2 select replicas + reunify merge),
   subnet_volume hash-partitions its sub-aggregation; both over the one
   eth0 tap. Returns the run result, tcpdest0's raw item stream (errors
   and Eof included) and subnet_volume's tuple rows. *)
let run_sharded_pair ?supervise ?parallel () =
  let engine = E.create ~shards:2 () in
  Workloads.eth0_setup ~rate:20.0 ~duration:0.5 ~seed:42 engine;
  (match E.install_program engine (two_query_program ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let items = ref [] in
  Result.get_ok
    (Rts.Manager.on_item (E.manager engine) "tcpdest0" (fun it -> items := it :: !items));
  let sv = Workloads.collect engine "subnet_volume" in
  let result = E.run engine ?supervise ?parallel () in
  (result, List.rev !items, sv ())

let tuple_rows items =
  List.filter_map
    (function Item.Tuple t -> Some (Workloads.row_to_string t) | _ -> None)
    items

let test_shard_crash_fail_fast () =
  with_faults "crash=_shard_tcpdest0_0:3" (fun () ->
      match run_sharded_pair ~supervise:Supervisor.Fail_fast () with
      | Ok _, _, _ -> Alcotest.fail "shard crash did not fail the run"
      | Error e, _, _ ->
          check Alcotest.bool ("error names the replica: " ^ e) true
            (contains e "_shard_tcpdest0_0"))

let test_shard_crash_isolate () =
  let r0, items0, sv0 = run_sharded_pair () in
  (match r0 with Ok _ -> () | Error e -> Alcotest.fail e);
  let base_rows = tuple_rows items0 in
  with_faults "crash=_shard_tcpdest0_0:3" (fun () ->
      match run_sharded_pair ~supervise:Supervisor.Isolate () with
      | Error e, _, _ -> Alcotest.fail ("isolate under shards must converge: " ^ e)
      | Ok _, items, sv ->
          check Alcotest.bool "poison visible at the reunified output" true
            (has_error items);
          check Alcotest.bool "reunified stream still terminates" true
            (List.mem Item.Eof items);
          let rows = tuple_rows items in
          check Alcotest.bool "surviving shard keeps flowing" true (rows <> []);
          List.iter
            (fun r ->
              check Alcotest.bool "surviving rows are genuine" true (List.mem r base_rows))
            rows;
          check
            Alcotest.(list string)
            "sibling query's shards untouched, byte for byte" sv0 sv)

let test_shard_stall_identical () =
  let r0, items0, sv0 = run_sharded_pair () in
  (match r0 with Ok _ -> () | Error e -> Alcotest.fail e);
  with_faults "stall=_shard_tcpdest0_1:3:5" (fun () ->
      match run_sharded_pair ~parallel:3 () with
      | Error e, _, _ -> Alcotest.fail ("stalled shard must converge: " ^ e)
      | Ok _, items, sv ->
          check
            Alcotest.(list string)
            "reunified output identical under a stalled shard" (tuple_rows items0)
            (tuple_rows items);
          check Alcotest.(list string) "sibling query identical" sv0 sv)

let test_shard_merge_gap_conserved () =
  let merge =
    Rts.Merge_op.make
      { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Rts.Order_prop.Asc }
  in
  let op = Rts.Merge_op.op merge in
  let out = ref [] in
  let emit i = out := i :: !out in
  let feed input item = Rts.Node.feed op ~input (Rts.Batch.of_item item) ~emit in
  feed 0 (Item.Tuple [| Value.Int 1 |]);
  feed 1 (Item.Tuple [| Value.Int 2 |]);
  feed 0 (Item.Gap 7);
  feed 1 (Item.Gap (-1));
  feed 0 Item.Eof;
  feed 1 Item.Eof;
  let emitted = List.rev !out in
  check
    Alcotest.(list int)
    "each gap forwarded exactly once, payload intact" [ 7; -1 ] (gaps emitted);
  check Alcotest.int "no tuple lost around the gaps" 2 (count_tuples emitted)

(* ----------------------------- shedding ---------------------------------- *)

let test_shed_conserves_tuples () =
  let mgr = Rts.Manager.create () in
  let n = 100 in
  let src_node =
    Result.get_ok (Rts.Manager.add_source mgr ~name:"src" ~schema:int_schema (counting_source n))
  in
  (* a subscriber channel nobody drains: pressure builds immediately *)
  let chan = Result.get_ok (Rts.Manager.subscribe mgr ~capacity:10 "src") in
  (match Rts.Scheduler.run ~shed:0.5 mgr with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let items = ref [] in
  let rec drain () =
    match Rts.Channel.pop_batch chan with
    | Some batch ->
        Rts.Batch.iter batch (fun it -> items := it :: !items);
        drain ()
    | None -> ()
  in
  drain ();
  let items = List.rev !items in
  let delivered = count_tuples items in
  let announced = List.fold_left ( + ) 0 (gaps items) in
  let shed = Rts.Node.shed_count src_node in
  check Alcotest.bool "pressure actually shed" true (shed > 0);
  check Alcotest.int "gap markers announce exactly the shed loss" shed announced;
  check Alcotest.int "emitted + shed = pulled" n (delivered + shed);
  check Alcotest.bool "stream still ends in Eof" true (List.mem Item.Eof items)

(* --------------------------- network healing ----------------------------- *)

let sock_counter = ref 0

let fresh_sock_path () =
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gsq-chaos-%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

let counter_value snapshot name =
  match Metrics.find snapshot name with
  | Some (Metrics.Counter n) -> n
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> 0

let payload_program =
  {|
  DEFINE { query_name pay; }
  SELECT time, len, payload FROM eth0.tcp WHERE ipversion = 4
|}

let payload_workload =
  {
    Workloads.wname = "pay";
    program = (fun () -> payload_program);
    setup = Workloads.eth0_setup ~rate:20.0 ~duration:0.5;
    outputs = [ "pay" ];
    params = [];
  }

let await ?(timeout = 10.0) what cond =
  let deadline = Gigascope_obs.Clock.now_ns () +. (timeout *. 1e9) in
  let rec go () =
    if cond () then ()
    else if Gigascope_obs.Clock.now_ns () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

(* S1: a unix path with a live listener behind it must be refused with a
   one-line error; a stale file from a dead server must be reclaimed. *)
let test_listen_address_conflicts () =
  let path = fresh_sock_path () in
  let e1 = E.create () in
  let s1 = Server.create e1 in
  (match Server.listen s1 (Addr.Unix_sock path) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let e2 = E.create () in
  let s2 = Server.create e2 in
  (match Server.listen s2 (Addr.Unix_sock path) with
  | Ok _ -> Alcotest.fail "second server stole a live listener's socket"
  | Error e ->
      check Alcotest.bool ("one-line error: " ^ e) true (contains e "cannot listen"));
  Server.stop s2;
  Server.stop s1;
  (* now fake a crashed server: a socket file with nothing behind it *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale (* close without unlink: the file stays *);
  check Alcotest.bool "stale file exists" true (Sys.file_exists path);
  let e3 = E.create () in
  let s3 = Server.create e3 in
  (match Server.listen s3 (Addr.Unix_sock path) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("stale socket not reclaimed: " ^ e));
  Server.stop s3

(* S2: a server that stops talking must surface as a timeout error on
   the client, never as an eternal hang in next/iter. *)
let test_idle_timeout_detects_dead_peer () =
  let engine = E.create () in
  payload_workload.Workloads.setup ~seed:7 engine;
  (match E.install_program engine payload_program with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let server = Server.create engine in
  let addr = Result.get_ok (Server.listen server (Addr.Unix_sock (fresh_sock_path ()))) in
  let client = Result.get_ok (Client.connect ~idle_timeout:0.2 addr) in
  (match Client.subscribe client "pay" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* the engine never runs and the server sends no heartbeats: the read
     deadline is the only way out *)
  let t0 = Gigascope_obs.Clock.now_ns () in
  (match Client.next client with
  | Ok _ -> Alcotest.fail "next returned data from a silent server"
  | Error e -> check Alcotest.bool ("timeout error: " ^ e) true (contains e "timeout"));
  let waited = (Gigascope_obs.Clock.now_ns () -. t0) /. 1e9 in
  check Alcotest.bool "returned promptly, not hung" true (waited < 5.0);
  Client.close client;
  Server.stop server

(* Heartbeats feed the idle deadline: a quiet-but-live server must NOT
   trip the client's timeout. *)
let test_heartbeats_keep_idle_link_alive () =
  let engine = E.create () in
  payload_workload.Workloads.setup ~seed:7 engine;
  (match E.install_program engine payload_program with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let server = Server.create ~heartbeat:0.05 engine in
  let addr = Result.get_ok (Server.listen server (Addr.Unix_sock (fresh_sock_path ()))) in
  let rows = ref 0 in
  let err = ref None in
  let client_thread =
    Thread.create
      (fun () ->
        match Client.connect ~idle_timeout:0.3 addr with
        | Error e -> err := Some e
        | Ok c -> (
            match Client.subscribe c "pay" with
            | Error e -> err := Some e
            | Ok _ -> (
                match Client.iter c (fun it -> if Item.is_tuple it then incr rows) with
                | Ok () -> Client.close c
                | Error e -> err := Some e)))
      ()
  in
  await "subscriber" (fun () -> Server.subscriber_count server = 1);
  (* sit past several idle windows before producing anything: only the
     heartbeats keep the subscription alive *)
  Thread.delay 0.8;
  (match E.run engine () with Ok _ -> () | Error e -> Alcotest.fail e);
  Thread.join client_thread;
  ignore (Server.drain ~timeout:5.0 server);
  Server.stop server;
  (match !err with Some e -> Alcotest.fail ("client: " ^ e) | None -> ());
  check Alcotest.bool "stream delivered after the quiet period" true (!rows > 0);
  let hb = counter_value (E.metrics_snapshot engine) "net.heartbeats.sent" in
  check Alcotest.bool "heartbeats were sent" true (hb > 0)

(* The healing loop end to end: a fault plan severs the subscriber's
   socket mid-stream; the client redials, resumes with its token, and
   every missed tuple is announced as an explicit gap. *)
let run_healing_scenario ~spec ~label =
  let seed = 11 in
  let baseline, _ = Workloads.exec payload_workload ~seed ~parallel:1 () in
  let total = List.length (List.assoc "pay" baseline) in
  Alcotest.(check bool) "workload produces traffic" true (total > 500);
  with_faults spec (fun () ->
      let engine = E.create () in
      payload_workload.Workloads.setup ~seed engine;
      (match E.install_program engine payload_program with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let server = Server.create ~egress_capacity:(total + 1024) engine in
      let addr = Result.get_ok (Server.listen server (Addr.Unix_sock (fresh_sock_path ()))) in
      let delivered = ref 0 in
      let gap_sum = ref 0 in
      let err = ref None in
      let client_thread =
        Thread.create
          (fun () ->
            match
              Client.connect
                ~reconnect:{ Client.default_reconnect with attempts = 10; base_delay = 0.01 }
                addr
            with
            | Error e -> err := Some e
            | Ok c -> (
                match Client.subscribe c "pay" with
                | Error e -> err := Some e
                | Ok _ -> (
                    match
                      Client.iter c (fun item ->
                          match item with
                          | Item.Tuple _ -> incr delivered
                          | Item.Gap g ->
                              if g < 0 then err := Some "unknown-size gap on a resumable sub"
                              else gap_sum := !gap_sum + g
                          | _ -> ())
                    with
                    | Ok () -> Client.close c
                    | Error e -> err := Some e)))
          ()
      in
      await "subscriber" (fun () -> Server.subscriber_count server = 1);
      (match E.run engine () with Ok _ -> () | Error e -> Alcotest.fail e);
      Thread.join client_thread;
      ignore (Server.drain ~timeout:5.0 server);
      let snap = E.metrics_snapshot engine in
      Server.stop server;
      (match !err with Some e -> Alcotest.fail (label ^ " client: " ^ e) | None -> ());
      check Alcotest.bool (label ^ ": connection was actually severed") true
        (!delivered < total || counter_value snap "net.resumes" > 0);
      check Alcotest.bool (label ^ ": client resumed") true (counter_value snap "net.resumes" >= 1);
      check Alcotest.int (label ^ ": delivered + announced gaps = total") total
        (!delivered + !gap_sum))

let test_reconnect_resumes_after_disconnect () =
  run_healing_scenario ~spec:"disconnect=3" ~label:"disconnect"

let test_reconnect_survives_torn_write () =
  run_healing_scenario ~spec:"torn=3" ~label:"torn"

(* Resume accounting over cuts placed by hand or by a fault plan. A
   query relays [n] counting tuples, one per scheduler round, to one
   reconnecting client; [on_round] runs after every round with the
   server and the client's running (delivered, gap) totals, and may wait
   on them or cut the link. The client's idle timeout turns a stream
   that never ends into an error instead of a hang. Returns the final
   totals and the number of resumes the server accepted. *)
let run_resumable ?(spec = "") ~n ~on_round () =
  let engine = E.create () in
  Result.get_ok
    (E.add_custom_source engine ~name:"steps" ~schema:int_schema
       ~pull:(counting_source n).Rts.Node.pull ~clock:(fun () -> []));
  (match E.install_program engine "DEFINE { query_name relay; } SELECT x FROM steps" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let server = Server.create engine in
  let addr = Result.get_ok (Server.listen server (Addr.Unix_sock (fresh_sock_path ()))) in
  let reconnect = { Client.default_reconnect with attempts = 10; base_delay = 0.01 } in
  let client = Result.get_ok (Client.connect ~reconnect ~idle_timeout:5.0 addr) in
  ignore (Result.get_ok (Client.subscribe client "relay"));
  let delivered = Atomic.make 0 and gaps = Atomic.make 0 and err = ref None in
  let totals () = (Atomic.get delivered, Atomic.get gaps) in
  (* the plan is installed after the subscription, and the run resets
     its counters, so a frame index counts from the run's first frame *)
  with_faults spec (fun () ->
      let reader =
        Thread.create
          (fun () ->
            match
              Client.iter client (function
                | Item.Tuple _ -> Atomic.incr delivered
                | Item.Gap g when g < 0 -> err := Some "unknown-size gap on a resumable sub"
                | Item.Gap g -> ignore (Atomic.fetch_and_add gaps g)
                | _ -> ())
            with
            | Ok () -> Client.close client
            | Error e -> err := Some e)
          ()
      in
      (match
         E.run engine ~quantum:1 ~heartbeats:false ~on_round:(fun r -> on_round r server totals) ()
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      Thread.join reader);
  ignore (Server.drain ~timeout:5.0 server);
  Server.stop server;
  (match !err with Some e -> Alcotest.failf "%s client: %s" spec e | None -> ());
  let delivered, gaps = totals () in
  (delivered, gaps, counter_value (E.metrics_snapshot engine) "net.resumes")

(* Two cuts, the second after the first resume's gap has reached the
   client. Each cut lands while the queue is empty, so the next run the
   writer pops dies with the socket: each resume has a loss to announce,
   and the second must not announce the first one's again. *)
let test_second_resume_announces_only_its_loss () =
  let step = 20 in
  let gaps_at_second_cut = ref 0 in
  let cut_when server totals what ok =
    await what (fun () -> ok (totals ()));
    gaps_at_second_cut := snd (totals ());
    check Alcotest.int "one link cut" 1 (Server.sever_subscribers server)
  in
  let delivered, gaps, resumes =
    run_resumable ~n:(3 * step)
      ~on_round:(fun r server totals ->
        if r = step then cut_when server totals "step 1 delivered" (fun (d, _) -> d = step)
        else if r = 2 * step then
          cut_when server totals "step 2 accounted, with a gap" (fun (d, g) ->
              d + g = 2 * step && g > 0))
      ()
  in
  check Alcotest.int "two resumes" 2 resumes;
  check Alcotest.bool "the second cut lost tuples too" true (gaps > !gaps_at_second_cut);
  check Alcotest.int "delivered + gaps = emitted" (3 * step) (delivered + gaps)

(* Every pair of cut frames over a short stream: wherever two cuts land
   (a data frame, the Eof frame, a resume's handshake or reply, the
   client's redial), delivered + gaps = emitted. Each round waits until
   the client has accounted for its tuple, so frame k carries tuple k
   until the first cut. *)
let test_cut_pairs_conserve () =
  let n = 6 in
  for k1 = 1 to 11 do
    for k2 = k1 + 1 to 12 do
      let spec = Printf.sprintf "disconnect=%d,disconnect=%d" k1 k2 in
      let delivered, gaps, _ =
        run_resumable ~spec ~n
          ~on_round:(fun r _ totals ->
            await "round accounted" (fun () ->
                let d, g = totals () in
                d + g >= min r n))
          ()
      in
      check Alcotest.int (spec ^ ": delivered + gaps = emitted") n (delivered + gaps)
    done
  done

(* Two Unix-domain subscribers under one frame-indexed clause: each
   client is a peer of its own, so each is cut at its own second frame.
   Every round waits until both clients have accounted for its tuple
   (or been cut), so frame k carries tuple k on each link. When every
   Unix connection was named "unix:", the clause fired once, on the
   second frame sent to either. *)
let test_unix_peers_cut_apart () =
  let n = 6 in
  let engine = E.create () in
  Result.get_ok
    (E.add_custom_source engine ~name:"steps" ~schema:int_schema
       ~pull:(counting_source n).Rts.Node.pull ~clock:(fun () -> []));
  (match E.install_program engine "DEFINE { query_name relay; } SELECT x FROM steps" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let server = Server.create engine in
  let addr = Result.get_ok (Server.listen server (Addr.Unix_sock (fresh_sock_path ()))) in
  let subscriber () =
    let c = Result.get_ok (Client.connect ~idle_timeout:5.0 addr) in
    ignore (Result.get_ok (Client.subscribe c "relay"));
    (c, Atomic.make 0, Atomic.make false, ref None)
  in
  let clients = [ subscriber (); subscriber () ] in
  with_faults "disconnect=2" (fun () ->
      let readers =
        List.map
          (fun (c, delivered, ended, result) ->
            Thread.create
              (fun () ->
                result :=
                  Some (Client.iter c (fun it -> if Item.is_tuple it then Atomic.incr delivered));
                Atomic.set ended true)
              ())
          clients
      in
      (match
         E.run engine ~quantum:1 ~heartbeats:false
           ~on_round:(fun r ->
             await "both links accounted" (fun () ->
                 List.for_all
                   (fun (_, delivered, ended, _) -> Atomic.get ended || Atomic.get delivered >= min r n)
                   clients))
           ()
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      List.iter Thread.join readers);
  ignore (Server.drain ~timeout:5.0 server);
  Server.stop server;
  List.iteri
    (fun i (c, delivered, _, result) ->
      check Alcotest.int (Printf.sprintf "subscriber %d got its first frame only" i) 1
        (Atomic.get delivered);
      check Alcotest.bool (Printf.sprintf "subscriber %d was cut" i) true
        (match !result with Some (Error _) -> true | Some (Ok ()) | None -> false);
      Client.close c)
    clients

(* --------------------------- state watchdog ------------------------------ *)

(* The regression behind the watchdog: a source whose schema imputes an
   ordering the data does not have. The certifier believes the schema
   (Monotone Asc ⇒ epoch group-closing ⇒ tiny bound, so the plan
   admits), but a first tuple from the far future races the aggregate's
   high water to the top and every later epoch opens a group that can
   never close — unbounded growth on a certified-finite plan. The
   watchdog must catch the certificate violation, announce the held
   state as one Gap, and hand the node to the supervisor instead of
   wedging; a sibling query on an honest source stays byte-identical. *)

let lying_ts_schema order =
  Schema.make [ { Schema.name = "ts"; ty = Ty.Int; order } ]

let add_liar engine ~n =
  (* tuple 0: ts = 1_000_000 (the racer); tuples 1..n: ts = 1..n *)
  let i = ref (-1) in
  Result.get_ok
    (E.add_custom_source engine ~name:"liar"
       ~schema:(lying_ts_schema (Order_prop.Monotone Order_prop.Asc))
       ~pull:(fun () ->
         incr i;
         if !i = 0 then Some (Item.Tuple [| Value.Int 1_000_000 |])
         else if !i <= n then Some (Item.Tuple [| Value.Int !i |])
         else None)
       ~clock:(fun () -> []))

let add_honest engine ~n =
  let i = ref 0 in
  Result.get_ok
    (E.add_custom_source engine ~name:"wellsrc"
       ~schema:(lying_ts_schema (Order_prop.Monotone Order_prop.Asc))
       ~pull:(fun () ->
         if !i >= n then None
         else begin
           incr i;
           Some (Item.Tuple [| Value.Int !i |])
         end)
       ~clock:(fun () -> []))

let bad_query = "DEFINE { query_name bad; } SELECT tb, count(*) as c FROM liar GROUP BY ts/1 as tb"
let good_query = "DEFINE { query_name good; } SELECT tb, count(*) as c FROM wellsrc GROUP BY ts/1 as tb"

let test_watchdog_isolates_certificate_violation () =
  let n = 64 in
  let total = n + 1 in
  let run_good_solo () =
    let engine = E.create () in
    add_honest engine ~n;
    (match E.install_program engine good_query with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    let got = ref [] in
    Result.get_ok (Rts.Manager.on_item (E.manager engine) "good" (fun it -> got := it :: !got));
    (match E.run engine ~quantum:total ~heartbeats:false () with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    List.rev !got
  in
  let engine = E.create () in
  add_liar engine ~n;
  add_honest engine ~n;
  (match E.install_program engine (bad_query ^ "\n" ^ good_query) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* the lie admitted the plan: the recorded certificate is finite *)
  (match E.certificate engine "bad" with
  | Some cert -> check Alcotest.bool "lying schema certifies finite" true (Gigascope_gsql.Certify.finite cert)
  | None -> Alcotest.fail "no certificate recorded for bad");
  let bad_items = ref [] and good_items = ref [] in
  Result.get_ok (Rts.Manager.on_item (E.manager engine) "bad" (fun it -> bad_items := it :: !bad_items));
  Result.get_ok (Rts.Manager.on_item (E.manager engine) "good" (fun it -> good_items := it :: !good_items));
  (* quantum = total: every tuple crosses into the aggregate in ONE
     input step — and the source's quantum runs out before it reaches
     EOF, so the held state is inspected before an Eof can flush it *)
  (match
     E.run engine ~quantum:total ~heartbeats:false ~state_slack:2.0
       ~supervise:Supervisor.Isolate ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("isolate run must converge: " ^ e));
  let bad = List.rev !bad_items in
  let delivered = count_tuples bad in
  let gaps =
    List.fold_left (fun acc it -> match it with Item.Gap g -> acc + g | _ -> acc) 0 bad
  in
  check Alcotest.int "nothing delivered before the trip" 0 delivered;
  check Alcotest.int "the held state is announced as gaps" total gaps;
  check Alcotest.int "delivered + gaps = total" total (delivered + gaps);
  check Alcotest.bool "violation surfaces as an explicit error" true (has_error bad);
  check Alcotest.bool "isolated node still terminates (Eof)" true (List.mem Item.Eof bad);
  (match Rts.Manager.find (E.manager engine) "bad" with
  | None -> Alcotest.fail "bad not installed"
  | Some node ->
      check Alcotest.int "watchdog counted the trip" 1 (Rts.Node.watchdog_trips node);
      check Alcotest.bool "peak gauge recorded the blow-up" true
        (Rts.Node.state_peak node >= total));
  check Alcotest.bool "sibling query is byte-identical to its solo run" true
    (List.rev !good_items = run_good_solo ())

(* The same violation on one domain, three tuples a step, every setting
   pinned: the watchdog trips on the three tuples the aggregate has
   seen, and the 62 the poisoned node then drains must still be
   announced, as one Gap before its Eof. *)
let test_watchdog_announces_what_it_drains () =
  let n = 64 in
  let total = n + 1 in
  let engine = E.create ~shards:1 () in
  add_liar engine ~n;
  (match E.install_program engine bad_query with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let items = ref [] in
  Result.get_ok (Rts.Manager.on_item (E.manager engine) "bad" (fun it -> items := it :: !items));
  (match
     E.run engine ~parallel:1 ~batch:1 ~quantum:3 ~heartbeats:false ~state_slack:2.0
       ~supervise:Supervisor.Isolate ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("isolate run must converge: " ^ e));
  let items = List.rev !items in
  let shape =
    List.filter_map
      (function
        | Item.Tuple _ -> None
        | Item.Gap g -> Some (Printf.sprintf "gap %d" g)
        | Item.Error _ -> Some "error"
        | Item.Eof -> Some "eof"
        | _ -> Some "other")
      items
  in
  check Alcotest.(list string) "trip gap, error, drained gap, eof"
    [ "gap 3"; "error"; "gap 62"; "eof" ] shape;
  let gaps = List.fold_left (fun acc it -> match it with Item.Gap g -> acc + g | _ -> acc) 0 items in
  check Alcotest.int "delivered + gaps = total" total (count_tuples items + gaps)

let test_honest_schema_is_rejected_statically () =
  (* same stream, honest (Unordered) schema: the certifier refuses it
     up front, naming the operator — the watchdog is only the backstop
     for schemas that lie *)
  let engine = E.create ~admit:E.Admit_reject () in
  let i = ref 0 in
  Result.get_ok
    (E.add_custom_source engine ~name:"liar"
       ~schema:(lying_ts_schema Order_prop.Unordered)
       ~pull:(fun () ->
         incr i;
         if !i <= 3 then Some (Item.Tuple [| Value.Int !i |]) else None)
       ~clock:(fun () -> []));
  match E.install_program engine bad_query with
  | Ok _ -> Alcotest.fail "unordered epoch key must not certify"
  | Error e ->
      check Alcotest.bool "diagnostic names the operator" true (contains e "bad");
      check Alcotest.bool "diagnostic names the admission override" true
        (contains e "--allow-unbounded")

(* ------------------------------ registration ----------------------------- *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "chaos"
    [
      ( "fault specs",
        [
          tc "spec parses and round-trips" test_spec_round_trip;
          tc "garbage specs rejected" test_spec_rejects_garbage;
          tc "nth clause fires exactly once" test_nth_fires_exactly_once;
          tc "prob clause replays for a seed" test_prob_replays_for_seed;
        ] );
      ( "supervision",
        [
          tc "fail_fast names the node" test_fail_fast_names_the_node;
          tc "isolate poisons only the subtree" test_isolate_poisons_only_the_subtree;
          tc "restart within budget" test_restart_within_budget;
          tc "budget exhausts to poison" test_restart_budget_exhausts_to_poison;
          tc "stateful operators never restart" test_stateful_operator_never_restarts;
        ] );
      ( "parallel domains",
        [
          tc "worker crash reported to domain 0" test_parallel_worker_crash_reported;
          tc "isolate converges on domains" test_parallel_isolate_converges;
          tc "injected stalls do not wedge" test_parallel_stall_converges;
          tc "faults off: byte-identical matrix" test_faults_off_differential;
        ] );
      ( "sharded chains",
        [
          tc "fail_fast names the crashed replica" test_shard_crash_fail_fast;
          tc "isolate poisons only the shard's cone" test_shard_crash_isolate;
          tc "stalled shard: output identical" test_shard_stall_identical;
          tc "gaps conserved through the reunify merge" test_shard_merge_gap_conserved;
        ] );
      ("shedding", [ tc "emitted + shed = pulled" test_shed_conserves_tuples ]);
      ( "state watchdog",
        [
          tc "certificate violation isolated, gaps conserved"
            test_watchdog_isolates_certificate_violation;
          tc "one domain, quantum 3: drained tuples announced"
            test_watchdog_announces_what_it_drains;
          tc "honest schema rejected statically" test_honest_schema_is_rejected_statically;
        ] );
      ( "network healing",
        [
          tc "listen: live socket refused, stale reclaimed" test_listen_address_conflicts;
          tc "idle timeout surfaces a dead peer" test_idle_timeout_detects_dead_peer;
          tc "heartbeats keep an idle link alive" test_heartbeats_keep_idle_link_alive;
          tc "reconnect resumes after a cut" test_reconnect_resumes_after_disconnect;
          tc "reconnect survives a torn write" test_reconnect_survives_torn_write;
          tc "second resume announces only its own loss" test_second_resume_announces_only_its_loss;
          tc "every pair of cut frames conserves" test_cut_pairs_conserve;
          tc "each unix client is cut at its own frame" test_unix_peers_cut_apart;
        ] );
    ]
