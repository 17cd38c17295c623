(* One workload end to end: generate its packets, compute the reference
   output, then either the timed reps (end-to-end metrics) or the traced
   run (per-layer metrics), each in a fresh child process. *)

module Metrics = Gigascope_obs.Metrics

(* [samples] are the values the metric reports (scaled to the reference
   host where Host applies), [raw] the same runs unscaled. *)
type summary = { median : float; q1 : float; q3 : float; samples : float list; raw : float list }

let summarize ?raw xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  {
    median = Rep.quantile a 0.5;
    q1 = Rep.quantile a 0.25;
    q3 = Rep.quantile a 0.75;
    samples = xs;
    raw = Option.value raw ~default:xs;
  }

type outcome = {
  workload : Workload.t;
  seed : int;
  packets : int;  (** generated, and handed to the engine in each run *)
  runs : int;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * summary) list;  (** in Defs order *)
  shown : Rep.t option;  (** the traced run shown in the table *)
  close_samples : int;
}

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------ checks *)

let check_outputs ~expected (r : Rep.t) =
  List.filter_map
    (fun (q, (d : Check.digest)) ->
      let n, bag = List.assoc q expected in
      let gaps = List.assoc q r.Rep.gaps in
      if d.Check.count + gaps <> n then
        Some
          (Printf.sprintf "%s: %d delivered + %d gap tuples, reference has %d" q d.Check.count
             gaps n)
      else if gaps = 0 && d.Check.bag <> bag then
        Some (Printf.sprintf "%s: output differs from the reference" q)
      else None)
    r.Rep.digests

(* Byte identity between two runs of the same packets: same tuples in
   the same order on every query. *)
let check_identical ~what (a : Rep.t) (b : Rep.t) =
  List.filter_map
    (fun (q, (d : Check.digest)) ->
      let d' = List.assoc q b.Rep.digests in
      if d.Check.count <> d'.Check.count || d.Check.ordered <> d'.Check.ordered then
        Some (Printf.sprintf "%s: %s output is not identical" q what)
      else None)
    a.Rep.digests

(* ----------------------------------------------------------- metrics *)

let per_pkt (r : Rep.t) x = x /. float_of_int r.Rep.packets

(* Every end-to-end metric, each the median of [reps] but setup_s, the
   median of the set-up cycles [setup] given as (raw, scaled) seconds.

   Times are divided by each run's host slowdown (see Workload.probes;
   it is 1 where the host is not probed), counts are as measured. *)
let end_to_end (reps : Rep.t list) ~setup =
  let runs f =
    let vs = List.map f reps in
    summarize ~raw:(List.map snd vs) (List.map fst vs)
  in
  let scaled (r : Rep.t) x = (x /. r.Rep.slowdown, x) in
  let count x = (x, x) in
  [
    ( "throughput_pps",
      runs (fun r ->
          let s, raw = scaled r r.Rep.wall_s in
          (float_of_int r.Rep.packets /. s, float_of_int r.Rep.packets /. raw)) );
    ("cpu_ns_per_pkt", runs (fun r -> scaled r (per_pkt r (r.Rep.cpu_s *. 1e9))));
    ("alloc_words_per_pkt", runs (fun r -> count (per_pkt r r.Rep.minor_words)));
    ( "heap_growth_mb",
      runs (fun r -> count (r.Rep.heap_growth_words *. float_of_int (Sys.word_size / 8) /. 1e6)) );
    ("setup_s", summarize ~raw:(List.map fst setup) (List.map snd setup));
    ("close_latency_p50_ms", runs (fun r -> scaled r (r.Rep.close.Rep.p50 /. 1e6)));
    ("close_latency_p99_ms", runs (fun r -> scaled r (r.Rep.close.Rep.p99 /. 1e6)));
  ]

let check_close (r : Rep.t) =
  if r.Rep.close.Rep.beyond_p99 < 10 then
    [
      Printf.sprintf "close latency: %d of %d samples lie beyond p99 (need 10)"
        r.Rep.close.Rep.beyond_p99 r.Rep.close.Rep.samples;
    ]
  else []

let snap_fold snap ~prefix ~suffix f init =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix name && String.ends_with ~suffix name then f acc v else acc)
    init snap

let layer_of_trace (t : Rep.trace) name = List.find_opt (fun l -> l.Rep.layer = name) t.Rep.layers

(* The per-layer metrics of one traced run [t], with the untraced run
   [base] of the same packets and the isolated source components. *)
let layer_metrics ~(base : Rep.t) ~(traced : Rep.t) (t : Rep.trace) (c : Rep.components) =
  let pp x = per_pkt traced x in
  let ns name = match layer_of_trace t name with Some l -> pp l.Rep.ns | None -> 0.0 in
  let words name =
    match layer_of_trace t name with
    | Some { Rep.words = Some w; _ } -> pp w
    | Some _ | None -> 0.0
  in
  let count name f = match layer_of_trace t name with Some l -> float_of_int (f l) | None -> 0.0 in
  let snap = base.Rep.registry in
  let counter name = float_of_int (Rep.counter snap name) in
  let lfta q =
    let l = "lfta." ^ q in
    [
      (l ^ ".ns_per_pkt", ns l);
      (l ^ ".alloc_words_per_pkt", words l);
      ( l ^ ".reduction",
        match layer_of_trace t l with
        | Some l when l.Rep.tuples_out > 0 ->
            float_of_int l.Rep.tuples_in /. float_of_int l.Rep.tuples_out
        | _ -> 0.0 );
      (l ^ ".evictions", count l (fun l -> l.Rep.evictions));
    ]
  in
  let hfta q =
    let l = "hfta." ^ q in
    [
      (l ^ ".ns_per_pkt", ns l);
      (l ^ ".alloc_words_per_pkt", words l);
      (l ^ ".tuples_in", count l (fun l -> l.Rep.tuples_in));
    ]
  in
  let merges = List.filter (fun l -> String.starts_with ~prefix:"merge." l.Rep.layer) t.Rep.layers in
  let batch_total, batch_count =
    List.fold_left
      (fun (tot, cnt) prefix ->
        snap_fold snap ~prefix ~suffix:".batch_items"
          (fun (tot, cnt) -> function
            | Metrics.Histogram h -> (tot +. h.Metrics.h_total, cnt + h.Metrics.h_count)
            | _ -> (tot, cnt))
          (tot, cnt))
      (0.0, 0) [ "rts.chan."; "rts.xchannel." ]
  in
  let xchan suffix =
    snap_fold snap ~prefix:"rts.xchannel." ~suffix
      (fun a -> function Metrics.Counter n -> a +. float_of_int n | _ -> a)
      0.0
  in
  let skew =
    snap_fold snap ~prefix:"rts.shard." ~suffix:".skew"
      (fun a -> function Metrics.Gauge g -> Float.max a g | _ -> a)
      0.0
  in
  let per_mpkt n = float_of_int n *. 1e6 /. float_of_int base.Rep.packets in
  [
    ("source.self_ns_per_pkt", ns "source");
    ("source.alloc_words_per_pkt", words "source");
    ("source.nic_ns_per_pkt", c.Rep.nic_ns);
    ("source.interpret_ns_per_pkt", c.Rep.interpret_ns);
    ("source.interpret_alloc_words_per_pkt", c.Rep.interpret_words);
    ("feed.ns_per_pkt", ns "feed");
    ("ingest_lag_p99_ms", base.Rep.lag_p99 /. 1e6);
  ]
  @ List.concat_map lfta Defs.lfta_queries
  @ List.concat_map hfta Workload.e2_queries
  @ [
      ("merge.ns_per_pkt", pp (List.fold_left (fun a l -> a +. l.Rep.ns) 0.0 merges));
      ( "merge.reunify_peak",
        float_of_int (List.fold_left (fun a l -> max a l.Rep.state_peak) 0 merges) );
      ( "chan.batch_items_mean",
        if batch_count = 0 then 0.0 else batch_total /. float_of_int batch_count );
      ("chan.drops", float_of_int base.Rep.chan_drops);
      ("subscriber.ns_per_pkt", ns "subscriber");
      ("scheduler.ns_per_pkt", ns "scheduler");
      ("scheduler.rounds", float_of_int t.Rep.rounds);
      ("scheduler.heartbeat_requests", float_of_int t.Rep.heartbeat_requests);
      ("domain.0.busy_share", t.Rep.busy.(0));
      ("domain.1.busy_share", if Array.length t.Rep.busy > 1 then t.Rep.busy.(1) else 0.0);
      ("xchan.blocked_ms", xchan ".blocked_ns" /. 1e6);
      ("xchan.tuples", xchan ".tuples_in");
      ("shard.skew_max", skew);
      ("close.first_emit_ms_p50", base.Rep.first_emit_p50 /. 1e6);
      ("close.flush_span_ms_p50", base.Rep.flush_span_p50 /. 1e6);
      ("net.frames", counter "net.frames_out");
      ( "net.bytes_per_tuple",
        if base.Rep.wire_tuples = 0 then 0.0
        else counter "net.bytes_out" /. float_of_int base.Rep.wire_tuples );
      ("net.subscriber_drops", counter "net.subscriber.drops");
      ("client.next_ns_per_tuple", base.Rep.next_p50_ns);
      ("gc.minor_collections_per_mpkt", per_mpkt base.Rep.minor_gcs);
      ("gc.major_collections_per_mpkt", per_mpkt base.Rep.major_gcs);
      ("unattributed_share", t.Rep.unattributed_ns /. t.Rep.t_wall_ns);
      ( "trace_overhead",
        let cost (r : Rep.t) = r.Rep.cpu_s /. r.Rep.slowdown /. float_of_int r.Rep.packets in
        (cost traced /. cost base) -. 1.0 );
      ( "loss_pct",
        100.0 *. float_of_int base.Rep.lost /. float_of_int (max 1 base.Rep.source_tuples) );
    ]

(* ------------------------------------------------------------- runs *)

type config = { seed : int; seconds : float; quick : bool; trace : bool }

let min_reps cfg = if cfg.quick then 2 else 5

let max_reps = 60

let run (w : Workload.t) cfg ~log =
  let scale = if cfg.quick then 0.5 else 1.0 in
  (* Set-up is timed before the packets exist: with them in the heap,
     the set-up's garbage collection would mark them too. *)
  let setup = if cfg.trace then [||] else Child.run (fun () -> Rep.setup_times w ~cycles:200) in
  let t_gen = now () in
  let packets = Workload.packets w ~seed:cfg.seed ~scale in
  let inp = Rep.prepare w packets in
  log
    (Printf.sprintf "%s: %d packets generated in %.1fs" w.Workload.name (Array.length packets)
       (now () -. t_gen));
  Gc.compact ();
  let expected = Child.run (fun () -> Check.reference ~queries:w.Workload.queries ~packets) in
  let flat = w.Workload.mode = Workload.Flat_out in
  let one how = Child.run (fun () -> Rep.run inp how) in
  (* Runs repeat until [seconds] have passed, at least [min] of them. *)
  let repeat how ~min =
    let t0 = now () in
    let rec go acc k =
      if k >= max_reps || (k >= min && now () -. t0 >= cfg.seconds) then List.rev acc
      else go (one how :: acc) (k + 1)
    in
    go [] 0
  in
  let output_errors reps = List.concat_map (check_outputs ~expected) reps in
  let determinism reps =
    match reps with
    | first :: rest -> List.concat_map (check_identical ~what:"rep-to-rep" first) rest
    | [] -> []
  in
  let loss_errors reps =
    if flat then
      List.concat_map
        (fun (r : Rep.t) ->
          if r.Rep.lost > 0 then [ Printf.sprintf "%d tuples lost on a flat-out run" r.Rep.lost ]
          else [])
        reps
    else []
  in
  let attempted reps = List.fold_left (fun a (r : Rep.t) -> a + r.Rep.packets) 0 reps in
  let failed reps = List.fold_left (fun a (r : Rep.t) -> a + r.Rep.lost) 0 reps in
  if not cfg.trace then begin
    let reps = repeat Rep.Plain ~min:(min_reps cfg) in
    let e2e = end_to_end reps ~setup:(Array.to_list setup) in
    {
      workload = w;
      seed = cfg.seed;
      packets = Array.length packets;
      runs = List.length reps;
      attempted = attempted reps;
      failed = failed reps;
      errors =
        output_errors reps @ determinism reps @ loss_errors reps @ List.concat_map check_close reps;
      metrics =
        List.map (fun (m : Defs.metric) -> (m.Defs.name, List.assoc m.Defs.name e2e)) Defs.end_to_end;
      shown = None;
      close_samples = List.fold_left (fun a (r : Rep.t) -> a + r.Rep.close.Rep.samples) 0 reps;
    }
  end
  else begin
    let base = one Rep.Plain in
    let traced = repeat Rep.Traced ~min:3 in
    let comp = Child.run (fun () -> Rep.components packets) in
    let trace_of (r : Rep.t) = Option.get r.Rep.trace in
    let per_run = List.map (fun r -> layer_metrics ~base ~traced:r (trace_of r) comp) traced in
    let metrics =
      List.map
        (fun (m : Defs.metric) ->
          (m.Defs.name, summarize (List.map (fun vs -> List.assoc m.Defs.name vs) per_run)))
        Defs.per_layer
    in
    let unattributed =
      let u = (List.assoc "unattributed_share" metrics).median in
      if u >= 0.10 then
        [ Printf.sprintf "unattributed share %.3f of the traced run's wall time (limit 0.10)" u ]
      else []
    in
    (* the traced run shown in the table: the one with the median wall *)
    let shown =
      let sorted = List.sort (fun (a : Rep.t) b -> compare a.Rep.wall_s b.Rep.wall_s) traced in
      List.nth sorted (List.length sorted / 2)
    in
    let all = base :: traced in
    {
      workload = w;
      seed = cfg.seed;
      packets = Array.length packets;
      runs = List.length traced;
      attempted = attempted all;
      failed = failed all;
      errors =
        output_errors all
        @ List.concat_map (check_identical ~what:"traced-vs-untraced" base) traced
        @ loss_errors all @ unattributed;
      metrics;
      shown = Some shown;
      close_samples = base.Rep.close.Rep.samples;
    }
  end
