module Metrics = Gigascope_obs.Metrics

let log_src = Logs.Src.create "gigascope.rts" ~doc:"Gigascope runtime (stream manager) events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  registry : (string, Node.t) Hashtbl.t;
  mutable order : Node.t list;  (* reverse registration order *)
  funcs : Func.registry;
  metrics : Metrics.t;
  default_capacity : int;
  mutable started : bool;
}

let create ?(default_capacity = 4096) () =
  let funcs = Func.create_registry () in
  Builtin_funcs.register_all funcs;
  {
    registry = Hashtbl.create 32;
    order = [];
    funcs;
    metrics = Metrics.create ();
    default_capacity;
    started = false;
  }

let functions t = t.funcs
let metrics t = t.metrics

let key = String.lowercase_ascii

(* Channel names repeat (a self-join reads one upstream twice; an app
   subscribes to the same query twice), so suffix until the prefix is
   free. *)
let unique_chan_prefix reg base =
  if not (Metrics.mem reg (base ^ ".tuples_in")) then base
  else
    let rec go i =
      let p = Printf.sprintf "%s#%d" base i in
      if Metrics.mem reg (p ^ ".tuples_in") then go (i + 1) else p
    in
    go 2

let register_channel_metrics t chan =
  let prefix = unique_chan_prefix t.metrics ("rts.chan." ^ Channel.name chan) in
  Channel.register_metrics chan t.metrics ~prefix

let register_xchannel_metrics t chan =
  let prefix = unique_chan_prefix t.metrics ("rts.xchannel." ^ Channel.name chan) in
  Channel.register_metrics chan t.metrics ~prefix

let register t node =
  let k = key (Node.name node) in
  if Hashtbl.mem t.registry k then
    Error (Printf.sprintf "stream manager: query name %s already registered" (Node.name node))
  else begin
    Hashtbl.replace t.registry k node;
    t.order <- node :: t.order;
    Node.register_metrics node t.metrics;
    Metrics.Counter.incr (Metrics.counter t.metrics "rts.manager.nodes_registered");
    Log.debug (fun m -> m "registered node %s" (Node.name node));
    Ok node
  end

let find t name = Hashtbl.find_opt t.registry (key name)
let nodes t = List.rev t.order

let add_source t ~name ~schema source =
  if t.started then
    Error "stream manager: sources are bound into the RTS; stop and restart to change them"
  else begin
    Metrics.Counter.incr (Metrics.counter t.metrics "rts.manager.sources");
    register t (Node.make_source ~name ~schema source)
  end

let add_query_node_sized t ~capacity ~name ~kind ~schema ~inputs ~op =
  let check_batch () =
    match kind with
    | Node.Lfta when t.started ->
        Error
          "stream manager: LFTAs are linked into the RTS and must be submitted in a batch; \
           restart to change them"
    | Node.Source -> Error "stream manager: use add_source for sources"
    | Node.Lfta | Node.Hfta -> Ok ()
  in
  let resolve_inputs () =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | input_name :: rest -> (
          match find t input_name with
          | Some up -> go (up :: acc) rest
          | None -> Error (Printf.sprintf "stream manager: unknown stream %s" input_name))
    in
    go [] inputs
  in
  let check_lfta_inputs ups =
    match kind with
    | Node.Lfta ->
        if List.for_all (fun up -> Node.kind up = Node.Source) ups then Ok ()
        else Error "stream manager: LFTAs accept only Protocol (source) input"
    | Node.Hfta | Node.Source -> Ok ()
  in
  match check_batch () with
  | Error _ as e -> e
  | Ok () -> (
      match resolve_inputs () with
      | Error _ as e -> e
      | Ok ups -> (
          match check_lfta_inputs ups with
          | Error _ as e -> e
          | Ok () -> (
              let node = Node.make_op ~name ~kind ~schema ~op in
              match register t node with
              | Error _ as e -> e
              | Ok node ->
                  (* Auto-sizing only ever grows a channel past the
                     default: a certified upstream burst larger than the
                     ring would otherwise drop tuples mid-flush. *)
                  let cap =
                    match capacity with
                    | Some c -> max c t.default_capacity
                    | None -> t.default_capacity
                  in
                  List.iter
                    (fun up -> Node.connect ~downstream:node ~upstream:up ~capacity:cap)
                    ups;
                  Array.iter (fun (_, chan) -> register_channel_metrics t chan) (Node.inputs node);
                  Ok node)))

let add_query_node t ~name ~kind ~schema ~inputs ~op =
  add_query_node_sized t ~capacity:None ~name ~kind ~schema ~inputs ~op

let subscribe t ?capacity name =
  match find t name with
  | None -> Error (Printf.sprintf "stream manager: unknown stream %s" name)
  | Some node ->
      let capacity = Option.value capacity ~default:t.default_capacity in
      let chan = Channel.create ~capacity ~name:(Printf.sprintf "%s->app" name) () in
      Node.add_subscriber node (Node.Chan chan);
      register_channel_metrics t chan;
      Log.debug (fun m -> m "application subscribed to %s (capacity %d)" name capacity);
      Ok chan

let on_item t name f =
  match find t name with
  | None -> Error (Printf.sprintf "stream manager: unknown stream %s" name)
  | Some node ->
      Node.add_subscriber node (Node.Callback f);
      Log.debug (fun m -> m "callback subscribed to %s" name);
      Ok ()

let on_batch t name f =
  match find t name with
  | None -> Error (Printf.sprintf "stream manager: unknown stream %s" name)
  | Some node ->
      Node.add_subscriber node (Node.Batch_callback f);
      Log.debug (fun m -> m "batch callback subscribed to %s" name);
      Ok ()

let start t =
  if not t.started then Log.info (fun m -> m "manager started: LFTA set frozen");
  t.started <- true

let started t = t.started

let restart t =
  if t.started then Log.info (fun m -> m "manager restarted: LFTA set unfrozen");
  t.started <- false

let flush t name =
  match find t name with
  | None -> Error (Printf.sprintf "stream manager: unknown stream %s" name)
  | Some node ->
      Log.debug (fun m -> m "flushing %s" name);
      (* Flushing "the query" means the whole chain: sub-aggregating LFTAs
         hold the open groups, so flush upstream first and drain each hop
         before flushing the next. *)
      let rec flush_chain node =
        Array.iter
          (fun (up, _) -> if Node.kind up <> Node.Source then flush_chain up)
          (Node.inputs node);
        ignore (Node.step_inputs node ~quantum:1_000_000);
        Node.inject_flush node
      in
      flush_chain node;
      Ok ()

let total_drops t = List.fold_left (fun acc n -> acc + Node.input_drops n) 0 (nodes t)

let kind_string node =
  match Node.kind node with
  | Node.Source -> "source"
  | Node.Lfta -> "lfta"
  | Node.Hfta -> "hfta"

let trace_report t =
  let snap = Metrics.snapshot t.metrics in
  let factor =
    match Metrics.find snap "rts.scheduler.service_sample" with
    | Some (Metrics.Gauge f) when f >= 1.0 -> f
    | _ -> 1.0
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %-8s %10s %10s %8s %11s %10s %9s\n" "node" "kind" "tuples-in"
       "tuples-out" "drops" "timed-steps" "cum-ms" "ns/tuple");
  List.iter
    (fun node ->
      let name = Node.name node in
      let hist = Metrics.find snap (Printf.sprintf "rts.node.%s.service_ns" name) in
      let steps, cum_ns =
        match hist with
        | Some (Metrics.Histogram h) -> (h.Metrics.h_count, h.Metrics.h_total *. factor)
        | _ -> (0, 0.0)
      in
      let tuples =
        match Node.kind node with
        | Node.Source -> Node.tuples_out node
        | Node.Lfta | Node.Hfta -> Node.tuples_in node
      in
      Buffer.add_string buf
        (Printf.sprintf "%-24s %-8s %10d %10d %8d %11d %10.2f %9.0f\n" name (kind_string node)
           (Node.tuples_in node) (Node.tuples_out node) (Node.input_drops node) steps
           (cum_ns /. 1e6)
           (cum_ns /. float_of_int (max 1 tuples))))
    (nodes t);
  if factor > 1.0 then
    Buffer.add_string buf
      (Printf.sprintf
         "(service times sampled every %.0f rounds; cum-ms and ns/tuple are scaled estimates)\n"
         factor);
  Buffer.contents buf
