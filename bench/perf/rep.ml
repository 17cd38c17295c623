(* One measured run of a workload, executed inside a forked child (see
   Child). Everything here runs after the parent generated the packets:
   feeds replay them, sinks check the output, and the measured region is
   the engine run alone. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Node = Rts.Node
module Net = Gigascope_net
module Metrics = Gigascope_obs.Metrics
module Clock = Gigascope_obs.Clock
module Stats = Gigascope_util.Stats
module Packet = Gigascope_packet.Packet

type input = {
  w : Workload.t;
  packets : Packet.t array;
  close_slot : int array;
      (** per packet: its epoch's slot if it is that epoch's last packet, else -1 *)
  e0 : int;  (** epoch of slot 0 *)
  slots : int;  (** epochs [packets] spans *)
}

let prepare w packets =
  let n = Array.length packets in
  if n = 0 then invalid_arg "no packets";
  let tb i = int_of_float packets.(i).Packet.ts in
  let e0 = tb 0 in
  let close_slot =
    Array.init n (fun i -> if i = n - 1 || tb (i + 1) <> tb i then tb i - e0 else -1)
  in
  { w; packets; close_slot; e0; slots = tb (n - 1) - e0 + 1 }

(* ---------------------------------------------------------------- feeds *)

let flat_feed inp ep host () =
  let i = ref 0 in
  let n = Array.length inp.packets in
  let probing = Workload.probes inp.w = Workload.During in
  fun () ->
    let k = !i in
    if k >= n then None
    else begin
      if probing && k mod Host.every = 0 then Host.probe host;
      i := k + 1;
      let e = inp.close_slot.(k) in
      if e >= 0 then ep.Check.closing.(e) <- Clock.now_ns ();
      Some inp.packets.(k)
    end

(* Open loop: the packet is due at [start + offset / speedup] however far
   the engine has fallen behind, and its lateness is recorded. *)
let paced_feed inp ep ~speedup ~lag () =
  let k = ref 0 in
  let n = Array.length inp.packets in
  let base_ts = inp.packets.(0).Packet.ts in
  let start = ref nan in
  fun () ->
    let i = !k in
    if i >= n then None
    else begin
      k := i + 1;
      let p = inp.packets.(i) in
      let now = Clock.now_ns () in
      if Float.is_nan !start then start := now;
      let due = !start +. ((p.Packet.ts -. base_ts) /. speedup *. 1e9) in
      let now =
        if due -. now > 500_000.0 then begin
          Thread.delay ((due -. now) /. 1e9);
          Clock.now_ns ()
        end
        else now
      in
      lag.(i) <- Float.max 0.0 (now -. due);
      let e = inp.close_slot.(i) in
      if e >= 0 then ep.Check.closing.(e) <- due;
      Some p
    end

(* ------------------------------------------------------------- results *)

type quantiles = { p50 : float; p99 : float; samples : int; beyond_p99 : int }

(* Linear interpolation on a sorted array, as Gigascope_util.Stats does. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let r = q *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((r -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let quantiles sorted =
  let p99 = quantile sorted 0.99 in
  {
    p50 = quantile sorted 0.5;
    p99;
    samples = Array.length sorted;
    beyond_p99 = Array.fold_left (fun acc x -> if x > p99 then acc + 1 else acc) 0 sorted;
  }

(* A layer's totals over the run. [words] is [None] where they were not
   measured (the engine's own tracing gives time only). *)
type layer = {
  layer : string;
  ns : float;
  words : float option;
  tuples_in : int;
  tuples_out : int;
  evictions : int;
  state_peak : int;
}

type trace = {
  layers : layer list;
  t_wall_ns : float;
  unattributed_ns : float;
  probes_ns : float;
  rounds : int;
  heartbeat_requests : int;
  busy : float array;  (** per domain: share of the run spent in node steps *)
}

type t = {
  packets : int;
  wall_s : float;  (** the engine run, host probes excluded *)
  cpu_s : float;  (** process user+sys over the run and delivery, host probes excluded *)
  slowdown : float;  (** of the host during the run, see Host *)
  minor_words : float;
  heap_growth_words : float;
  minor_gcs : int;
  major_gcs : int;
  source_tuples : int;
  chan_drops : int;
  lost : int;  (** channel drops + shed + egress drops *)
  digests : (string * Check.digest) list;
  gaps : (string * int) list;
  close : quantiles;  (** close latency, ns *)
  first_emit_p50 : float;
  flush_span_p50 : float;
  lag_p99 : float;
  wire_tuples : int;
  next_p50_ns : float;
  registry : Metrics.snapshot;
  trace : trace option;
}

let counter snap name = match Metrics.find snap name with Some (Metrics.Counter n) -> n | _ -> 0

let sum_counters snap ~prefix ~suffix =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Metrics.Counter n when String.starts_with ~prefix name && String.ends_with ~suffix name ->
          acc + n
      | _ -> acc)
    0 snap

(* ------------------------------------------------------------- layers *)

(* Which layer a node belongs to. Sharding renames an LFTA's replicas
   [_shard_<q>_<i>] and turns [_lfta_<q>] into the merge that reunifies
   them. *)
let layer_of node =
  let name = Node.name node in
  let strip p s = String.sub s (String.length p) (String.length s - String.length p) in
  match Node.kind node with
  | Node.Source -> "source"
  | kind ->
      if String.starts_with ~prefix:"_shard_" name then
        let base = strip "_shard_" name in
        match String.rindex_opt base '_' with
        | Some i -> "lfta." ^ String.sub base 0 i
        | None -> "lfta." ^ base
      else if String.starts_with ~prefix:"_lfta_" name then
        (if kind = Node.Hfta then "merge." else "lfta.") ^ strip "_lfta_" name
      else (if kind = Node.Lfta then "lfta." else "hfta.") ^ name

let add_layer acc name ns words =
  match List.assoc_opt name acc with
  | Some (n0, w0) ->
      let words = match (w0, words) with Some a, Some b -> Some (a +. b) | _ -> None in
      (name, (n0 +. ns, words)) :: List.remove_assoc name acc
  | None -> (name, (ns, words)) :: acc

let layers_of eng acc =
  let snap = E.metrics_snapshot eng in
  let nodes = Rts.Manager.nodes (E.manager eng) in
  List.rev_map
    (fun (layer, (ns, words)) ->
      let mine = List.filter (fun n -> layer_of n = layer) nodes in
      let sum f = List.fold_left (fun a n -> a + f n) 0 mine in
      {
        layer;
        ns;
        words;
        tuples_in = sum Node.tuples_in;
        tuples_out = sum Node.tuples_out;
        evictions =
          sum (fun n -> counter snap (Printf.sprintf "rts.node.%s.lfta.evictions" (Node.name n)));
        state_peak = List.fold_left (fun a n -> max a (Node.state_peak n)) 0 mine;
      })
    acc
  |> List.sort (fun a b -> compare a.layer b.layer)

(* Spans the benchmark records around its own closures, and what one
   span costs on this host (measured before the run). *)
type probes = {
  feed : Traced.span;
  subscribers : (string * Traced.span) list;
  cost : Traced.probe;
}

let new_probes w =
  {
    feed = Traced.span ();
    subscribers = List.map (fun q -> (q, Traced.span ())) w.Workload.queries;
    cost = Traced.calibrate ();
  }

(* The child span nested in [node]'s steps, if any: the feed runs inside
   the source's pull, a query's callback inside the step of the node
   that delivers it. *)
let children probes node =
  match Node.kind node with
  | Node.Source -> [ probes.feed ]
  | _ -> Option.to_list (List.assoc_opt (Node.name node) probes.subscribers)

let bench_layers probes =
  let p = probes.cost in
  let sub_ns = List.fold_left (fun a (_, s) -> a +. Traced.true_ns p s) 0.0 probes.subscribers in
  let sub_w = List.fold_left (fun a (_, s) -> a +. Traced.true_words p s) 0.0 probes.subscribers in
  [
    ("feed", (Traced.true_ns p probes.feed, Some (Traced.true_words p probes.feed)));
    ("subscriber", (sub_ns, Some sub_w));
  ]

(* Attribution for the bench-side driver: every node's self time and
   words, its children removed; what no span covers is unattributed. *)
let attribute_traced probes eng (r : Traced.result) =
  let p = probes.cost in
  let acc =
    List.fold_left
      (fun acc (node, s) ->
        let kids = children probes node in
        let ns =
          Traced.true_ns p s -. List.fold_left (fun a k -> a +. Traced.nested_ns p k) 0.0 kids
        in
        let words =
          Traced.true_words p s
          -. List.fold_left (fun a k -> a +. Traced.nested_words p k) 0.0 kids
        in
        add_layer acc (layer_of node) ns (Some words))
      (bench_layers probes) r.Traced.steps
  in
  let acc =
    add_layer acc "scheduler" (Traced.true_ns p r.scheduler)
      (Some (Traced.true_words p r.scheduler))
  in
  let layers = layers_of eng acc in
  let spans =
    r.scheduler.n + probes.feed.n
    + List.fold_left (fun a (_, s) -> a + s.Traced.n) 0 probes.subscribers
    + List.fold_left (fun a (_, s) -> a + s.Traced.n) 0 r.steps
  in
  let probes_ns = float_of_int spans *. p.Traced.full_ns in
  let attributed = List.fold_left (fun a l -> a +. l.ns) 0.0 layers in
  let busy = List.fold_left (fun a (_, s) -> a +. Traced.true_ns p s) 0.0 r.steps in
  {
    layers;
    t_wall_ns = r.wall_ns;
    unattributed_ns = r.wall_ns -. attributed -. probes_ns;
    probes_ns;
    rounds = r.rounds;
    heartbeat_requests = r.heartbeat_requests;
    busy = [| busy /. r.wall_ns; 0.0 |];
  }

(* Attribution for a multi-domain run traced by the engine itself
   (Engine.run ~trace:true times every node step): node times come from
   the [service_ns] histograms, domains from Scheduler.partition. Words
   are not measured per node there. Unattributed is the part of domain
   0's wall clock outside its node steps: its scheduler loop and parking. *)
let attribute_engine probes eng ~domains ~wall_ns (stats : Rts.Scheduler.stats) =
  let p = probes.cost in
  let snap = E.metrics_snapshot eng in
  let service node =
    match Metrics.find snap (Printf.sprintf "rts.node.%s.service_ns" (Node.name node)) with
    | Some (Metrics.Histogram h) -> h.Metrics.h_total
    | _ -> 0.0
  in
  let nodes = Rts.Manager.nodes (E.manager eng) in
  let parts =
    match Rts.Scheduler.partition ~domains nodes with
    | Ok parts -> parts
    | Error e -> failwith e
  in
  let busy = Array.map (fun ns -> List.fold_left (fun a n -> a +. service n) 0.0 ns) parts in
  let acc =
    List.fold_left
      (fun acc node ->
        let kids = children probes node in
        let ns = service node -. List.fold_left (fun a k -> a +. Traced.nested_ns p k) 0.0 kids in
        add_layer acc (layer_of node) ns None)
      (bench_layers probes) nodes
  in
  {
    layers = layers_of eng acc;
    t_wall_ns = wall_ns;
    unattributed_ns = wall_ns -. busy.(0);
    probes_ns = 0.0;
    rounds = stats.Rts.Scheduler.rounds;
    heartbeat_requests = stats.Rts.Scheduler.heartbeat_requests;
    busy = Array.map (fun b -> b /. wall_ns) busy;
  }

(* ---------------------------------------------------------------- runs *)

type how = Plain | Traced

let timed_query q = List.mem q Workload.e2_queries

let make_sinks inp ep =
  List.map (fun q -> (q, Check.sink ~query:q ~timed:(timed_query q) ep)) inp.w.Workload.queries

let on_tuple how probes sinks q =
  let obs = Check.observe (List.assoc q sinks) in
  match how with
  | Plain -> obs
  | Traced ->
      let s = List.assoc q probes.subscribers in
      fun v -> Traced.timed1 s obs v

let with_feed_probe how probes factory =
  match how with
  | Plain -> factory
  | Traced ->
      fun () ->
        let inner = factory () in
        fun () -> Traced.timed probes.feed inner

type measure = {
  m_wall_ns : float;
  m_trace : trace option;
  m_cpu_s : float;
  m_minor_words : float;
  m_heap_words : float;
  m_minor_gcs : int;
  m_major_gcs : int;
}

(* Run [body] between two GC/CPU readings, after a full collection so
   the set-up's garbage is not charged to the run. [body] returns the
   engine's wall time and the trace. *)
let measured body =
  Gc.compact ();
  let s0 = Gc.quick_stat () in
  let c0 = Unix.times () in
  let m_wall_ns, m_trace = body () in
  let c1 = Unix.times () in
  let s1 = Gc.quick_stat () in
  let cpu t = t.Unix.tms_utime +. t.Unix.tms_stime in
  {
    m_wall_ns;
    m_trace;
    m_cpu_s = cpu c1 -. cpu c0;
    m_minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    m_heap_words = float_of_int (s1.Gc.heap_words - s0.Gc.heap_words);
    m_minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
    m_major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
  }

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* The engine run itself: Engine.run, or the bench-side driver when
   traced on one domain, or Engine.run's own tracing on several. *)
let engine_body how inp probes eng () =
  let w = inp.w in
  let t0 = Clock.now_ns () in
  match how with
  | Plain ->
      ignore (ok_or_fail "run" (Workload.run_engine w eng));
      (Clock.now_ns () -. t0, None)
  | Traced when w.Workload.domains = 1 ->
      let r = ok_or_fail "traced run" (Traced.run ~batch:w.Workload.batch (E.manager eng)) in
      (Clock.now_ns () -. t0, Some (attribute_traced probes eng r))
  | Traced ->
      let stats = ok_or_fail "run" (Workload.run_engine ~trace:true w eng) in
      let wall_ns = Clock.now_ns () -. t0 in
      (wall_ns, Some (attribute_engine probes eng ~domains:w.Workload.domains ~wall_ns stats))

let finish ~eng ~sinks ~lag ~host ~wire_tuples ~next_p50_ns m ~packets =
  let probe_s = host.Host.total_ns /. 1e9 in
  let snap = E.metrics_snapshot eng in
  let sinks = List.map snd sinks in
  let first, span = Check.close_spans sinks in
  let chan_drops = E.total_drops eng in
  Array.sort Float.compare lag;
  {
    packets;
    wall_s = (m.m_wall_ns /. 1e9) -. probe_s;
    cpu_s = m.m_cpu_s -. probe_s;
    slowdown = Host.slowdown host;
    minor_words = m.m_minor_words;
    heap_growth_words = m.m_heap_words;
    minor_gcs = m.m_minor_gcs;
    major_gcs = m.m_major_gcs;
    source_tuples = counter snap "rts.node.eth0.tcp.tuples_out";
    chan_drops;
    lost =
      chan_drops
      + sum_counters snap ~prefix:"rts.shed." ~suffix:""
      + counter snap "net.subscriber.drops";
    digests = List.map (fun s -> (s.Check.query, Check.digest s)) sinks;
    gaps = List.map (fun s -> (s.Check.query, s.Check.gaps)) sinks;
    close = quantiles (Check.latencies sinks);
    first_emit_p50 = quantile first 0.5;
    flush_span_p50 = quantile span 0.5;
    lag_p99 = quantile lag 0.99;
    wire_tuples;
    next_p50_ns;
    registry = snap;
    trace = m.m_trace;
  }

let flat inp how =
  let w = inp.w in
  let ep = Check.epochs ~e0:inp.e0 ~n:inp.slots in
  let sinks = make_sinks inp ep in
  let probes = new_probes w in
  let host = Host.create () in
  let feed = with_feed_probe how probes (flat_feed inp ep host) in
  let eng = Workload.setup w ~feed ~on_tuple:(on_tuple how probes sinks) in
  let around = Workload.probes w = Workload.Around in
  if around then Host.pair host;
  let m = measured (engine_body how inp probes eng) in
  if around then Host.pair host;
  m
  |> finish ~eng ~sinks ~lag:[||] ~host ~wire_tuples:0 ~next_p50_ns:0.0
       ~packets:(Array.length inp.packets)

(* A loopback subscriber thread: every tuple is recorded at the moment
   Net.Client.next hands it over; gap markers are counted. *)
let subscriber addr sink next_ns =
  let err = ref None in
  let th =
    Thread.create
      (fun () ->
        match Net.Client.connect addr with
        | Error e -> err := Some e
        | Ok c ->
            (match Net.Client.subscribe c sink.Check.query with
            | Error e -> err := Some e
            | Ok _ ->
                let rec go () =
                  let t0 = Clock.now_ns () in
                  match Net.Client.next c with
                  | Ok (Some (Rts.Item.Tuple v)) ->
                      let now = Clock.now_ns () in
                      Stats.add next_ns (now -. t0);
                      Check.record sink v ~now;
                      go ()
                  | Ok (Some (Rts.Item.Gap n)) ->
                      sink.Check.gaps <- sink.Check.gaps + max 0 n;
                      go ()
                  | Ok (Some _) -> go ()
                  | Ok None -> ()
                  | Error e -> err := Some e
                in
                go ());
            Net.Client.close c)
      ()
  in
  (th, err)

let paced inp how ~speedup =
  let w = inp.w in
  let lag = Array.make (Array.length inp.packets) 0.0 in
  let ep = Check.epochs ~e0:inp.e0 ~n:inp.slots in
  let sinks = make_sinks inp ep in
  let probes = new_probes w in
  let host = Host.create () (* never probed: see Workload.probes *) in
  let feed = with_feed_probe how probes (paced_feed inp ep ~speedup ~lag) in
  let eng = Workload.setup w ~feed ~on_tuple:(on_tuple how probes sinks) in
  (* Egress queues big enough that the paced load never fills them: a
     drop here would be a failed delivery, not a measurement. *)
  let server = Net.Server.create ~policy:Net.Server.Drop_newest ~egress_capacity:(1 lsl 20) eng in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop server)
    (fun () ->
      let addr = ok_or_fail "listen" (Net.Server.listen server (Net.Addr.Tcp ("127.0.0.1", 0))) in
      let next_ns = Stats.create ~reservoir:4096 () in
      let clients = List.map (fun q -> subscriber addr (List.assoc q sinks) next_ns) w.Workload.wire in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        Net.Server.subscriber_count server < List.length clients && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.01
      done;
      if Net.Server.subscriber_count server < List.length clients then
        failwith "subscribers did not attach";
      let m =
        measured (fun () ->
            let r = engine_body how inp probes eng () in
            if not (Net.Server.drain ~timeout:30.0 server) then failwith "egress drain timed out";
            r)
      in
      List.iter (fun (th, _) -> Thread.join th) clients;
      List.iter
        (fun (_, err) -> match !err with Some e -> failwith ("subscriber: " ^ e) | None -> ())
        clients;
      let wire_tuples =
        List.fold_left (fun a q -> a + (List.assoc q sinks).Check.count) 0 w.Workload.wire
      in
      finish ~eng ~sinks ~lag ~host ~wire_tuples
        ~next_p50_ns:(Stats.percentile next_ns 50.0)
        ~packets:(Array.length inp.packets) m)

let run inp how =
  match inp.w.Workload.mode with
  | Workload.Flat_out -> flat inp how
  | Workload.Paced { speedup } -> paced inp how ~speedup

(* ------------------------------------------------ set-up and components *)

(* Engine creation, the interface, program installation and the
   subscriptions: one discarded warm-up, then [cycles] timed cycles,
   each right after a host probe. Returns (raw, scaled) seconds. *)
let setup_times w ~cycles =
  let one () =
    let host = Host.create () in
    Host.probe host;
    let t0 = Clock.now_ns () in
    ignore (Workload.setup w ~feed:(fun () () -> None) ~on_tuple:(fun _ _ -> ()));
    let s = (Clock.now_ns () -. t0) /. 1e9 in
    (s, s /. Host.slowdown host)
  in
  ignore (one ());
  Array.init cycles (fun _ -> one ())

type components = { nic_ns : float; interpret_ns : float; interpret_words : float }

(* The two halves of the source layer in isolation, over the same
   packets: the dumb card's path (encode to wire format, deliver) and
   the TCP Protocol's interpretation into a tuple. Median of three
   passes each. *)
let components packets =
  let n = float_of_int (Array.length packets) in
  let pass f =
    Gc.compact ();
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    Array.iter f packets;
    let t1 = Clock.now_ns () in
    let w1 = Gc.minor_words () in
    ((t1 -. t0) /. n, (w1 -. w0) /. n)
  in
  let median3 f =
    let l = List.sort compare [ pass f; pass f; pass f ] in
    List.nth l 1
  in
  let nic = Gigascope_nic.Nic.create () in
  let nic_ns, _ = median3 (fun p -> ignore (Gigascope_nic.Nic.deliver nic (Packet.encode p))) in
  let tcp = Gigascope.Default_protocols.tcp in
  let interpret_ns, interpret_words =
    median3 (fun p -> ignore (tcp.Gigascope.Default_protocols.interpret p))
  in
  { nic_ns; interpret_ns; interpret_words }
