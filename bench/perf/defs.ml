(* Every metric the benchmark reports, with its unit, direction and
   regression bound. BENCHMARK.json lists the same names; the test in
   this directory checks that the two agree. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float option }

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }

(* No bound is wider than 15%. Each sits above the widest spread
   (interquartile range over median) that ten seeded invocations of any
   workload showed on the 2-vCPU host the benchmark was built on: 9% for
   the times, 6% for heap growth, which the seed moves, 13% for set-up
   time, and 1% for the words allocated, which the seed alone moves.
   README.md has the runs. *)
let end_to_end =
  [
    e2e "throughput_pps" "pkt/s" Higher 0.15;
    e2e "cpu_ns_per_pkt" "ns/pkt" Lower 0.15;
    e2e "alloc_words_per_pkt" "words/pkt" Lower 0.02;
    e2e "heap_growth_mb" "MB" Lower 0.15;
    e2e "setup_s" "s" Lower 0.15;
    e2e "close_latency_p50_ms" "ms" Lower 0.15;
    e2e "close_latency_p99_ms" "ms" Lower 0.15;
  ]

let lfta_queries = Workload.e2_queries @ [ "tcp_sel" ]

let layer ?(better = Lower) name unit_ = { name; unit_; better; bound = None }

let per_layer =
  [
    layer "source.self_ns_per_pkt" "ns/pkt";
    layer "source.alloc_words_per_pkt" "words/pkt";
    layer "source.nic_ns_per_pkt" "ns/pkt";
    layer "source.interpret_ns_per_pkt" "ns/pkt";
    layer "source.interpret_alloc_words_per_pkt" "words/pkt";
    layer "feed.ns_per_pkt" "ns/pkt";
    layer "ingest_lag_p99_ms" "ms";
  ]
  @ List.concat_map
      (fun q ->
        [
          layer (Printf.sprintf "lfta.%s.ns_per_pkt" q) "ns/pkt";
          layer (Printf.sprintf "lfta.%s.alloc_words_per_pkt" q) "words/pkt";
          layer ~better:Higher (Printf.sprintf "lfta.%s.reduction" q) "ratio";
          layer (Printf.sprintf "lfta.%s.evictions" q) "count";
        ])
      lfta_queries
  @ List.concat_map
      (fun q ->
        [
          layer (Printf.sprintf "hfta.%s.ns_per_pkt" q) "ns/pkt";
          layer (Printf.sprintf "hfta.%s.alloc_words_per_pkt" q) "words/pkt";
          layer (Printf.sprintf "hfta.%s.tuples_in" q) "count";
        ])
      Workload.e2_queries
  @ [
      layer "merge.ns_per_pkt" "ns/pkt";
      layer "merge.reunify_peak" "tuples";
      layer ~better:Higher "chan.batch_items_mean" "items";
      layer "chan.drops" "count";
      layer "subscriber.ns_per_pkt" "ns/pkt";
      layer "scheduler.ns_per_pkt" "ns/pkt";
      layer "scheduler.rounds" "count";
      layer "scheduler.heartbeat_requests" "count";
      layer ~better:Higher "domain.0.busy_share" "share";
      layer ~better:Higher "domain.1.busy_share" "share";
      layer "xchan.blocked_ms" "ms";
      layer "xchan.tuples" "count";
      layer "shard.skew_max" "ratio";
      layer "close.first_emit_ms_p50" "ms";
      layer "close.flush_span_ms_p50" "ms";
      layer "net.frames" "count";
      layer "net.bytes_per_tuple" "B/tuple";
      layer "net.subscriber_drops" "count";
      layer "client.next_ns_per_tuple" "ns";
      layer "gc.minor_collections_per_mpkt" "1/Mpkt";
      layer "gc.major_collections_per_mpkt" "1/Mpkt";
      layer "unattributed_share" "share";
      layer "trace_overhead" "share";
      layer "loss_pct" "%";
    ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"
