module Metrics = Gigascope_obs.Metrics

type policy = Fail_fast | Isolate | Restart

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "fail_fast" | "fail-fast" | "failfast" -> Ok Fail_fast
  | "isolate" -> Ok Isolate
  | "restart" -> Ok Restart
  | other -> Error (Printf.sprintf "unknown supervision policy %S (fail_fast|isolate|restart)" other)

let policy_to_string = function
  | Fail_fast -> "fail_fast"
  | Isolate -> "isolate"
  | Restart -> "restart"

exception Crashed of string * string
(* (node, message): a Fail_fast escalation. Raised out of the node step
   and caught at the scheduler boundary, which turns it into the run's
   [Error] result — on a worker domain the existing crash reporting
   forwards it to domain 0. *)

(* Crashes escalated out of worker domains are stringified by the
   existing domain_runner reporting; register a printer so they read as
   a one-liner naming the node, not a constructor dump. *)
let () =
  Printexc.register_printer (function
    | Crashed (node, msg) -> Some (Printf.sprintf "node %s crashed: %s" node msg)
    | _ -> None)

type verdict = Retry | Poison | Escalate

(* Restarts allowed per node before its next crash poisons it. *)
let restart_budget = 3

type t = {
  policy : policy;
  mu : Mutex.t;
  budgets : (string, int) Hashtbl.t;  (* node -> restarts consumed *)
  mutable poisoned_nodes : string list;
  restarts : Metrics.Counter.t;
  poisons : Metrics.Counter.t;
  escalations : Metrics.Counter.t;
}

let create ?(policy = Fail_fast) () =
  {
    policy;
    mu = Mutex.create ();
    budgets = Hashtbl.create 8;
    poisoned_nodes = [];
    restarts = Metrics.Counter.make ();
    poisons = Metrics.Counter.make ();
    escalations = Metrics.Counter.make ();
  }

let policy t = t.policy

let register_metrics t reg =
  let attach name c = if not (Metrics.mem reg name) then Metrics.attach_counter reg name c in
  attach "rts.supervisor.restarts" t.restarts;
  attach "rts.supervisor.poisoned" t.poisons;
  attach "rts.supervisor.escalations" t.escalations

(* Called from whichever domain stepped the crashing node; the budget
   table is shared, hence the lock. The verdict is advisory policy — the
   node itself performs the restart or the poisoning, because only it
   owns the operator state. *)
let on_crash t ~node ~restartable exn =
  let msg =
    match exn with Faults.Injected m -> m | e -> Printexc.to_string e
  in
  Mutex.lock t.mu;
  let verdict =
    match t.policy with
    | Fail_fast ->
        Metrics.Counter.incr t.escalations;
        Escalate
    | Isolate ->
        t.poisoned_nodes <- node :: t.poisoned_nodes;
        Metrics.Counter.incr t.poisons;
        Poison
    | Restart ->
        let used = Option.value (Hashtbl.find_opt t.budgets node) ~default:0 in
        if restartable && used < restart_budget then begin
          Hashtbl.replace t.budgets node (used + 1);
          Metrics.Counter.incr t.restarts;
          Retry
        end
        else begin
          t.poisoned_nodes <- node :: t.poisoned_nodes;
          Metrics.Counter.incr t.poisons;
          Poison
        end
  in
  Mutex.unlock t.mu;
  (verdict, msg)

let restarts t = Metrics.Counter.get t.restarts

let poisoned t =
  Mutex.lock t.mu;
  let l = t.poisoned_nodes in
  Mutex.unlock t.mu;
  l
