(* The benchmark harness: one entry per experiment in EXPERIMENTS.md.

     e1    - Section 4: the four capture configurations, loss vs. rate
     e2    - Conclusions: packets/second through a production-like query set
     a1    - LFTA direct-mapped table: data reduction vs. table size
     a2    - LFTA/HFTA splitting on vs. off: tuples crossing the channel
     a3    - merge of skewed streams: buffer growth with/without heartbeats
     a4    - NIC capability levels: bytes delivered to the host
     a5    - join algorithm choice: output ordering vs. buffer space
     soak  - paced end-to-end replay over the loopback wire protocol:
             the 2%-loss doctrine, gap conservation, latency percentiles
     micro - Bechamel micro-costs of the operators and substrates

   `main.exe` with no argument runs everything. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Gsql = Gigascope_gsql
module Traffic = Gigascope_traffic
module Sim = Gigascope_sim
module Value = Rts.Value
module Metrics = Gigascope_obs.Metrics

let section title =
  Printf.printf "\n==== %s ====\n%!" title

(* Minimal JSON emitter for the BENCH_*.json artifacts (no deps; the
   registry's own Metrics.to_json only covers snapshots, and the bench
   records are summary rows, not raw metrics). *)
module Json = struct
  type t =
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf ~indent j =
    let pad n = String.make n ' ' in
    match j with
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.1f" f)
        else Buffer.add_string buf (Printf.sprintf "%.6g" f)
    | Str s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (escape s))
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (pad (indent + 2));
            emit buf ~indent:(indent + 2) item)
          items;
        Buffer.add_string buf ("\n" ^ pad indent ^ "]")
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (Printf.sprintf "%s\"%s\": " (pad (indent + 2)) (escape k));
            emit buf ~indent:(indent + 2) v)
          fields;
        Buffer.add_string buf ("\n" ^ pad indent ^ "}")

  let to_file path j =
    let buf = Buffer.create 4096 in
    emit buf ~indent:0 j;
    Buffer.add_char buf '\n';
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote %s\n%!" path
end

(* Memory accounting for the meta block: the process heap high-water
   (top_heap_words covers every engine a sweep created, warmups
   included) plus, when a representative engine is handed over, the
   per-operator resident-state peaks against their certified bounds —
   the rts.state.* namespace, frozen into the artifact. *)
let state_peak_rows eng =
  List.filter_map
    (fun node ->
      let peak = Rts.Node.state_peak node in
      if peak = 0 then None
      else
        Some
          ( Rts.Node.name node,
            Json.Obj
              [
                ("peak", Json.Int peak);
                ( "bound",
                  let b = Rts.Node.state_bound node in
                  if Float.is_finite b then Json.Float b else Json.Str "unbounded" );
              ] ))
    (Rts.Manager.nodes (E.manager eng))

(* Run metadata stamped into every BENCH_*.json: a bench number without
   the revision and the knobs it ran under cannot be compared to anything. *)
let run_meta ?(state = []) ~wall_s () =
  let gc = Gc.quick_stat () in
  let git_rev =
    match
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with Unix.WEXITED 0 when line <> "" -> line | _ -> ""
    with
    | "" -> "unknown"
    | rev -> rev
    | exception _ -> "unknown"
  in
  let env name =
    match Sys.getenv_opt name with Some v when v <> "" -> v | _ -> "unset"
  in
  Json.Obj
    [
      ("git_rev", Json.Str git_rev);
      ("wall_clock_s", Json.Float wall_s);
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("env_parallel", Json.Str (env "GIGASCOPE_PARALLEL"));
      ("env_batch", Json.Str (env "GIGASCOPE_BATCH"));
      ("env_shards", Json.Str (env "GIGASCOPE_SHARDS"));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("word_size_bits", Json.Int Sys.word_size);
      ( "heap_top_mb",
        Json.Float
          (float_of_int gc.Gc.top_heap_words
          *. float_of_int (Sys.word_size / 8)
          /. 1e6) );
      ("gc_major_collections", Json.Int gc.Gc.major_collections);
      ("rts_state_peaks", Json.Obj state);
    ]

(* ---------------------------------------------------------------- E1 --- *)

let run_e1 () =
  section "E1: Section 4 performance experiment";
  Sim.Experiment.print_summary (Sim.Experiment.run ~duration:20.0 ())

(* ---------------------------------------------------------------- E2 --- *)

(* A production-like query set: the HTTP-fraction pair, per-port counts,
   per-subnet volumes, and a flow aggregation. *)
let e2_queries =
  {|
  DEFINE { query_name e2_port80cnt; }
  SELECT tb, count(*) as cnt
  FROM eth0.tcp
  WHERE ipversion = 4 and protocol = 6 and destport = 80
  GROUP BY time/1 as tb

  DEFINE { query_name e2_http; }
  SELECT tb, count(*) as cnt
  FROM eth0.tcp
  WHERE ipversion = 4 and protocol = 6 and destport = 80
    and str_match_regex(payload, '^[^\n]*HTTP/1.*') = TRUE
  GROUP BY time/1 as tb

  DEFINE { query_name e2_ports; }
  SELECT tb, destport, count(*) as cnt, sum(len) as bytes
  FROM eth0.tcp
  WHERE ipversion = 4
  GROUP BY time/1 as tb, destport

  DEFINE { query_name e2_subnets; }
  SELECT tb, truncate_ip(srcip, 16) as subnet, count(*) as cnt
  FROM eth0.tcp
  WHERE ipversion = 4
  GROUP BY time/1 as tb, truncate_ip(srcip, 16) as subnet

  DEFINE { query_name e2_flows; }
  SELECT tb, srcip, destip, srcport, destport, count(*) as pkts, sum(len) as bytes
  FROM eth0.tcp
  WHERE ipversion = 4
  GROUP BY time/1 as tb, srcip, destip, srcport, destport
|}

let e2_names = ["e2_port80cnt"; "e2_http"; "e2_ports"; "e2_subnets"; "e2_flows"]

(* pre-generate so the measurement is the query network, not the source *)
let e2_packets () =
  let cfg =
    {
      Traffic.Gen.default with
      Traffic.Gen.duration = 3.0;
      rate_mbps = 300.0;
      seed = 5;
      n_flows = 2048;
    }
  in
  let gen = Traffic.Gen.create cfg in
  let rec go acc = match Traffic.Gen.next gen with Some p -> go (p :: acc) | None -> List.rev acc in
  go []

(* Best of [n] repetitions by wall time (first element of the result
   tuple): the container this runs in is noisy, and minimum-of-N is the
   standard way to read a throughput bench through the noise. *)
let best_of n run =
  let rec go best k =
    if k = 0 then best
    else
      let r = run () in
      let best = match best with Some b when fst b <= fst r -> Some b | _ -> Some r in
      go best (k - 1)
  in
  Option.get (go None n)

(* Per-operator rows (tuples in/out, evictions, service time) from a run's
   metrics registry, as both a printed table and the JSON records. *)
let per_op_rows snap =
  let counter name =
    match Metrics.find snap name with Some (Metrics.Counter n) -> n | _ -> 0
  in
  List.filter_map
    (fun (name, value) ->
      match value with
      | Metrics.Counter tout
        when String.starts_with ~prefix:"rts.node." name
             && Filename.check_suffix name ".tuples_out" ->
          let node = String.sub name 9 (String.length name - 9 - String.length ".tuples_out") in
          let service =
            match Metrics.find snap (Printf.sprintf "rts.node.%s.service_ns" node) with
            | Some (Metrics.Histogram h) -> Some h
            | _ -> None
          in
          Some
            ( node,
              counter (Printf.sprintf "rts.node.%s.tuples_in" node),
              tout,
              counter (Printf.sprintf "rts.node.%s.lfta.evictions" node),
              service )
      | _ -> None)
    snap

let per_op_json rows =
  Json.List
    (List.map
       (fun (node, tin, tout, evictions, service) ->
         Json.Obj
           ([
              ("node", Json.Str node);
              ("tuples_in", Json.Int tin);
              ("tuples_out", Json.Int tout);
              ("lfta_evictions", Json.Int evictions);
            ]
           @
           match service with
           | Some h ->
               [
                 ("service_steps", Json.Int h.Metrics.h_count);
                 ("service_ns_mean", Json.Float h.Metrics.h_mean);
                 ("service_ns_p99", Json.Float h.Metrics.h_p99);
               ]
           | None -> []))
       rows)

let run_e2 () =
  section "E2: sustained packets/second through a 5-query production-like set";
  let t_start = Unix.gettimeofday () in
  let packets = e2_packets () in
  let n_packets = List.length packets in
  let run_one ~batch =
    let eng = E.create ~default_capacity:65536 () in
    E.add_packet_list_interface eng ~name:"eth0" packets;
    (match E.install_program eng e2_queries with
    | Ok _ -> ()
    | Error e -> failwith ("e2 install: " ^ e));
    let outputs = ref 0 in
    List.iter (fun q -> Result.get_ok (E.on_tuple eng q (fun _ -> incr outputs))) e2_names;
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    (match E.run eng ~batch () with Ok _ -> () | Error e -> failwith ("e2 run: " ^ e));
    let dt = Unix.gettimeofday () -. t0 in
    (dt, (!outputs, E.total_drops eng, eng))
  in
  Printf.printf "packets: %d\n" n_packets;
  (* one discarded warmup run: the first run through the packet list pays
     promotion of the shared fixtures into the major heap *)
  ignore (run_one ~batch:1);
  Printf.printf "%-8s %10s %14s %10s %8s %10s\n" "batch" "wall(s)" "pkts/s" "outputs" "drops"
    "speedup";
  let base_outputs = ref (-1) and baseline = ref 0.0 and base_rows = ref [] in
  let base_state = ref [] in
  let sweep =
    List.map
      (fun batch ->
        let dt, (outputs, drops, eng) = best_of 3 (fun () -> run_one ~batch) in
        if !base_outputs < 0 then begin
          base_outputs := outputs;
          baseline := dt;
          base_rows := per_op_rows (E.metrics_snapshot eng);
          base_state := state_peak_rows eng
        end
        else if outputs <> !base_outputs then
          failwith
            (Printf.sprintf "e2: batch %d produced %d outputs, batch 1 produced %d" batch
               outputs !base_outputs);
        let rate = float_of_int n_packets /. dt in
        Printf.printf "%-8d %10.2f %14.0f %10d %8d %9.2fx\n%!" batch dt rate outputs drops
          (!baseline /. dt);
        Json.Obj
          [
            ("batch", Json.Int batch);
            ("wall_s", Json.Float dt);
            ("pkts_per_s", Json.Float rate);
            ("outputs", Json.Int outputs);
            ("drops", Json.Int drops);
            ("speedup_vs_batch1", Json.Float (!baseline /. dt));
          ])
      [1; 16; 64; 256]
  in
  (* per-operator detail from the batch=1 run: where the packets went and
     which LFTA tables thrashed *)
  Printf.printf "%-22s %12s %12s %10s %14s\n" "operator" "tuples-in" "tuples-out" "evictions"
    "service(ns)";
  List.iter
    (fun (node, tin, tout, evictions, service) ->
      Printf.printf "%-22s %12d %12d %10d %14s\n" node tin tout evictions
        (match service with
        | Some h -> Printf.sprintf "%.0f" h.Metrics.h_mean
        | None -> "-"))
    !base_rows;
  Json.to_file "BENCH_e2.json"
    (Json.Obj
       [
         ("bench", Json.Str "e2");
         ("description", Json.Str "packets/second through a 5-query production-like set, swept over data-plane batch size");
         ("meta", run_meta ~state:!base_state ~wall_s:(Unix.gettimeofday () -. t_start) ());
         ("packets", Json.Int n_packets);
         ( "pre_refactor_baseline",
           Json.Obj
             [
               ("note", Json.Str "tuple-at-a-time data plane, before the batched refactor");
               ("pkts_per_s", Json.Float 220_434.0);
             ] );
         ("sweep", Json.List sweep);
         ("per_op_batch1", per_op_json !base_rows);
       ]);
  Printf.printf "paper: 1.2M pkts/s sustained on a 2003 dual 2.4GHz server\n"

(* ---------------------------------------------------------------- A1 --- *)

let run_a1 () =
  section "A1: LFTA direct-mapped table size vs. early data reduction";
  Printf.printf "%-10s %18s %18s %12s\n" "slots" "reduction(local)" "reduction(uniform)" "note";
  let run_one ~bits ~uniform =
    let cfg =
      {
        Traffic.Gen.default with
        Traffic.Gen.duration = 2.0;
        rate_mbps = 200.0;
        seed = 21;
        n_flows = 1024;
        uniform_random = uniform;
      }
    in
    let eng = E.create ~default_capacity:1_000_000 () in
    E.add_generator_interface eng ~name:"eth0" cfg;
    let q =
      Printf.sprintf
        {|
        DEFINE { query_name a1_flows; lfta_bits %d; }
        SELECT tb, srcip, destip, srcport, destport, count(*) as cnt
        FROM eth0.tcp
        WHERE ipversion = 4
        GROUP BY time/1 as tb, srcip, destip, srcport, destport
      |}
        bits
    in
    match E.install_query eng q with
    | Error e -> failwith ("a1: " ^ e)
    | Ok inst -> (
        (match E.run eng () with Ok _ -> () | Error e -> failwith ("a1 run: " ^ e));
        match inst.Gsql.Codegen.lfta_aggs with
        | [(_, agg)] ->
            let mgr = E.manager eng in
            let lfta = Option.get (Rts.Manager.find mgr "_lfta_a1_flows") in
            let input = Rts.Node.tuples_in lfta in
            let emitted = Rts.Lfta_aggregate.emitted agg in
            (input, emitted, Rts.Lfta_aggregate.evictions agg)
        | _ -> failwith "a1: expected one LFTA aggregation")
  in
  List.iter
    (fun bits ->
      let in_l, out_l, _ = run_one ~bits ~uniform:false in
      let in_u, out_u, _ = run_one ~bits ~uniform:true in
      Printf.printf "%-10d %17.1fx %17.1fx %12s\n" (1 lsl bits)
        (float_of_int in_l /. float_of_int (max 1 out_l))
        (float_of_int in_u /. float_of_int (max 1 out_u))
        (if bits <= 6 then "tiny table" else ""))
    [4; 6; 8; 10; 12; 14];
  Printf.printf
    "claim: temporal locality makes even a small table effective (Section 3);\n\
     adversarial uniform traffic defeats it.\n"

(* ---------------------------------------------------------------- A2 --- *)

let run_a2 () =
  section "A2: LFTA/HFTA aggregate splitting on vs. off";
  let cfg =
    { Traffic.Gen.default with Traffic.Gen.duration = 1.0; rate_mbps = 80.0; seed = 22 }
  in
  let crossing ~split =
    let eng = E.create ~default_capacity:1_000_000 () in
    E.add_generator_interface eng ~name:"eth0" cfg;
    let q =
      if split then
        {|
        DEFINE { query_name a2_agg; }
        SELECT tb, destport, count(*) as cnt
        FROM eth0.tcp WHERE ipversion = 4
        GROUP BY time/1 as tb, destport
      |}
      else
        (* disable the splitter by interposing a raw pass-through stream:
           the aggregation then runs entirely in the HFTA and every raw
           tuple crosses the channel *)
        {|
        DEFINE { query_name a2_raw; }
        SELECT time, destport FROM eth0.tcp WHERE ipversion = 4

        DEFINE { query_name a2_agg; }
        SELECT tb, destport, count(*) as cnt
        FROM a2_raw
        GROUP BY time/1 as tb, destport
      |}
    in
    (match E.install_program eng q with Ok _ -> () | Error e -> failwith ("a2: " ^ e));
    (match E.run eng () with Ok _ -> () | Error e -> failwith ("a2 run: " ^ e));
    let mgr = E.manager eng in
    let agg = Option.get (Rts.Manager.find mgr "a2_agg") in
    (* tuples the HFTA read from its input channel *)
    Rts.Node.tuples_in agg
  in
  let with_split = crossing ~split:true in
  let without = crossing ~split:false in
  Printf.printf "tuples crossing into the HFTA: split=%d  unsplit=%d  (%.0fx reduction)\n"
    with_split without
    (float_of_int without /. float_of_int (max 1 with_split))

(* ---------------------------------------------------------------- A3 --- *)

let run_a3 () =
  section "A3: heartbeats unblock a merge of skewed streams";
  let schema =
    Rts.Schema.make
      [
        { Rts.Schema.name = "ts"; ty = Rts.Ty.Int; order = Rts.Order_prop.Monotone Rts.Order_prop.Asc };
        { Rts.Schema.name = "v"; ty = Rts.Ty.Int; order = Rts.Order_prop.Unordered };
      ]
  in
  let run_one ~heartbeats =
    let mgr = Rts.Manager.create ~default_capacity:1_000_000 () in
    (* fast source: 100k tuples, 1 per "ms"; slow source: 2 tuples total *)
    let fast_i = ref 0 in
    let fast =
      {
        Rts.Node.pull =
          (fun () ->
            if !fast_i >= 100_000 then None
            else begin
              let t = !fast_i in
              incr fast_i;
              Some (Rts.Item.Tuple [| Value.Int t; Value.Int 0 |])
            end);
        clock = (fun () -> [(0, Value.Int !fast_i)]);
      }
    in
    let slow_sent = ref 0 in
    let slow =
      {
        Rts.Node.pull =
          (fun () ->
            (* one tuple at t=0, one at the very end; in between silence —
               but its clock tracks the fast stream's progress, as a real
               low-volume interface's timer would *)
            if !slow_sent = 0 then begin
              incr slow_sent;
              Some (Rts.Item.Tuple [| Value.Int 0; Value.Int 1 |])
            end
            else if !slow_sent = 1 && !fast_i >= 100_000 then begin
              incr slow_sent;
              Some (Rts.Item.Tuple [| Value.Int 100_000; Value.Int 1 |])
            end
            else if !slow_sent >= 2 then None
            else Some Rts.Item.Flush (* a keep-alive no-op so the source is not "exhausted" *));
        clock = (fun () -> [(0, Value.Int !fast_i)]);
      }
    in
    Result.get_ok (Result.map ignore (Rts.Manager.add_source mgr ~name:"fast" ~schema fast));
    Result.get_ok (Result.map ignore (Rts.Manager.add_source mgr ~name:"slow" ~schema slow));
    let merge =
      Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Rts.Order_prop.Asc }
    in
    Result.get_ok
      (Result.map ignore
         (Rts.Manager.add_query_node mgr ~name:"merged" ~kind:Rts.Node.Hfta ~schema
            ~inputs:["fast"; "slow"] ~op:(Rts.Merge_op.op merge)));
    (match Rts.Scheduler.run ~heartbeats mgr with
    | Ok _ -> ()
    | Error e -> failwith ("a3: " ^ e));
    Rts.Merge_op.high_water merge
  in
  let hw_on = run_one ~heartbeats:true in
  let hw_off = run_one ~heartbeats:false in
  Printf.printf "peak merge buffer: heartbeats ON = %d tuples, OFF = %d tuples\n" hw_on hw_off;
  Printf.printf
    "claim: without ordering-update tokens the silent input forces the merge\n\
     to buffer the fast stream (Section 3, Unblocking Operators).\n"

(* ---------------------------------------------------------------- A5 --- *)

let run_a5 () =
  section "A5: join algorithm choice - output ordering vs. buffer space";
  (* Section 2.1: the join's output can be "monotonically increasing or
     banded-increasing(2) depending on the choice of join algorithm
     (monotonically increasing requires more buffer space)" *)
  let rng = Gigascope_util.Prng.create 55 in
  let mk n =
    let ts = ref 0 in
    List.init n (fun i ->
        ts := !ts + Gigascope_util.Prng.int rng 3;
        [| Value.Int !ts; Value.Int i |])
  in
  let left = mk 20000 and right = mk 20000 in
  let run mode =
    let join =
      Rts.Join_op.make
        {
          Rts.Join_op.output_mode = mode;
          left_idx = 0;
          right_idx = 0;
          lo = -4.0;
          hi = 4.0;
          pred = (fun _ _ -> true);
          assemble = (fun l r -> Some [| l.(0); r.(0) |]);
          left_out = Some 0;
          right_out = Some 1;
        }
    in
    let op = Rts.Join_op.op join in
    let out = ref 0 and backwards = ref 0 and last = ref min_int in
    let emit = function
      | Rts.Item.Tuple t ->
          incr out;
          (match t.(0) with
          | Value.Int v ->
              if v < !last then incr backwards;
              last := max !last v
          | _ -> ())
      | _ -> ()
    in
    let tagged =
      List.map (fun r -> (0, r)) left @ List.map (fun r -> (1, r)) right
      |> List.stable_sort (fun (_, a) (_, b) -> Value.compare a.(0) b.(0))
    in
    let feed input item = Rts.Node.feed op ~input (Rts.Batch.of_item item) ~emit in
    List.iter (fun (input, row) -> feed input (Rts.Item.Tuple row)) tagged;
    feed 0 Rts.Item.Eof;
    feed 1 Rts.Item.Eof;
    (!out, !backwards, Rts.Join_op.high_water join)
  in
  let out_b, back_b, hw_b = run Rts.Join_op.Banded_output in
  let out_o, back_o, hw_o = run Rts.Join_op.Ordered_output in
  Printf.printf "%-18s %10s %18s %14s\n" "algorithm" "matches" "out-of-order out" "peak buffered";
  Printf.printf "%-18s %10d %18d %14d\n" "probe (banded)" out_b back_b hw_b;
  Printf.printf "%-18s %10d %18d %14d\n" "buffered (ordered)" out_o back_o hw_o;
  Printf.printf
    "claim: same matches; the ordered algorithm emits monotone output at the\n\
     cost of extra buffering (Section 2.1).\n"

(* ---------------------------------------------------------------- A4 --- *)

let run_a4 () =
  section "A4: NIC capability vs. bytes delivered to the host";
  (* the same port-80 query under the three card models; results identical,
     host-side data volume not *)
  let cfg =
    { Traffic.Gen.default with Traffic.Gen.duration = 1.0; rate_mbps = 60.0; seed = 44 }
  in
  Printf.printf "%-14s %12s %14s %14s %10s\n" "capability" "pkts to host" "bytes to host" "query rows" "reduction";
  let base_bytes = ref 0 in
  List.iter
    (fun (label, cap) ->
      let eng = E.create ~default_capacity:500_000 () in
      E.add_generator_interface eng ~name:"eth0" ~capability:cap cfg;
      (match
         E.install_query eng ~name:"a4q"
           {| SELECT time, destport FROM eth0.tcp WHERE protocol = 6 and destport = 80 |}
       with
      | Ok _ -> ()
      | Error e -> failwith ("a4: " ^ e));
      let rows = ref 0 in
      Result.get_ok (E.on_tuple eng "a4q" (fun _ -> incr rows));
      (match E.run eng () with Ok _ -> () | Error e -> failwith ("a4 run: " ^ e));
      let stats = Gigascope_nic.Nic.stats (Option.get (E.nic_of eng "eth0")) in
      if !base_bytes = 0 then base_bytes := stats.Gigascope_nic.Nic.bytes_delivered;
      Printf.printf "%-14s %12d %14d %14d %9.1fx\n" label
        stats.Gigascope_nic.Nic.packets_delivered stats.Gigascope_nic.Nic.bytes_delivered !rows
        (float_of_int !base_bytes /. float_of_int (max 1 stats.Gigascope_nic.Nic.bytes_delivered)))
    [("dumb", E.Cap_none); ("bpf+snap", E.Cap_bpf); ("programmable", E.Cap_lfta)];
  Printf.printf
    "claim: pushing the filter and snap length into the card shrinks what the\n\
     host must touch, without changing any query result (Section 3).\n"

(* -------------------------------------------------------------- soak --- *)

(* A paced end-to-end regression harness: replay synthetic traffic at its
   own timestamps (wall-clock pacing, not flat-out), deliver every query's
   output to a real subscriber over the loopback wire protocol, and hold
   the run to the paper's doctrine — at the offered rate the system keeps
   up, loses at most 2%, and accounts for every tuple it does lose (gap
   markers at the subscribers must conserve the server's drop count).
   Ingest→deliver latency is sampled throughout and reported per query.

     main.exe soak [DURATION_S] [RATE_MBPS]     (defaults 10s, 80 Mbit/s) *)

module Net = Gigascope_net

let soak_loss_threshold_pct = 2.0

(* p99 sanity bound for the smoke test: on a paced run that keeps up,
   ingest→deliver latency is queue residence, not load; anything beyond
   this means the plane stalled. Generous because CI containers are noisy. *)
let soak_sane_p99_ms = 5_000.0

let run_soak () =
  section "SOAK: paced replay, loopback delivery, the 2%-loss doctrine";
  let t_start = Unix.gettimeofday () in
  let argf i default =
    if Array.length Sys.argv > i then
      match float_of_string_opt Sys.argv.(i) with Some f when f > 0.0 -> f | _ -> default
    else default
  in
  let duration = argf 2 10.0 in
  let rate = argf 3 80.0 in
  let latency_every = 32 in
  (* pre-generate so pacing (and nothing else) is the source-side cost *)
  let packets =
    let cfg =
      {
        Traffic.Gen.default with
        Traffic.Gen.duration;
        rate_mbps = rate;
        seed = 77;
        n_flows = 1024;
      }
    in
    let gen = Traffic.Gen.create cfg in
    let rec go acc =
      match Traffic.Gen.next gen with Some p -> go (p :: acc) | None -> List.rev acc
    in
    Array.of_list (go [])
  in
  let n_packets = Array.length packets in
  Printf.printf "replaying %d packets over %.1fs at %.0f Mbit/s, latency sample 1/%d\n%!"
    n_packets duration rate latency_every;
  let eng = E.create ~default_capacity:65536 () in
  (* capture timestamps are absolute (the generator's start_ts); pace
     relative to the first packet *)
  let base_ts = if n_packets > 0 then packets.(0).Gigascope_packet.Packet.ts else 0.0 in
  E.add_interface eng ~name:"eth0"
    ~feed:(fun () ->
      let i = ref 0 in
      let t0 = ref nan in
      fun () ->
        if !i >= n_packets then None
        else begin
          let p = packets.(!i) in
          incr i;
          if Float.is_nan !t0 then t0 := Unix.gettimeofday ();
          let lag =
            !t0 +. (p.Gigascope_packet.Packet.ts -. base_ts) -. Unix.gettimeofday ()
          in
          if lag > 0.0005 then Thread.delay lag;
          Some p
        end)
    ();
  (match E.install_program eng e2_queries with
  | Ok _ -> ()
  | Error e -> failwith ("soak install: " ^ e));
  let server = Net.Server.create ~policy:Net.Server.Drop_newest ~egress_capacity:4096 eng in
  let addr =
    match Net.Server.listen server (Net.Addr.Tcp ("127.0.0.1", 0)) with
    | Ok a -> a
    | Error e -> failwith ("soak listen: " ^ e)
  in
  let subscribe q =
    let delivered = ref 0 and gap_tuples = ref 0 and err = ref "" in
    let thread =
      Thread.create
        (fun () ->
          match Net.Client.connect addr with
          | Error e -> err := e
          | Ok c ->
              (match Net.Client.subscribe c q with
              | Error e -> err := e
              | Ok _ ->
                  let rec go () =
                    match Net.Client.next c with
                    | Ok (Some (Rts.Item.Tuple _)) ->
                        incr delivered;
                        go ()
                    | Ok (Some (Rts.Item.Gap n)) ->
                        gap_tuples := !gap_tuples + max 0 n;
                        go ()
                    | Ok (Some _) -> go ()
                    | Ok None -> ()
                    | Error e -> err := e
                  in
                  go ());
              Net.Client.close c)
        ()
    in
    (q, delivered, gap_tuples, err, thread)
  in
  let subs = List.map subscribe e2_names in
  let n_subs = List.length subs in
  let rec wait_attached tries =
    if Net.Server.subscriber_count server < n_subs then
      if tries = 0 then failwith "soak: subscribers failed to attach"
      else begin
        Thread.delay 0.02;
        wait_attached (tries - 1)
      end
  in
  wait_attached 250;
  let t_run = Unix.gettimeofday () in
  (match E.run eng ~latency_sample:latency_every () with
  | Ok _ -> ()
  | Error e -> failwith ("soak run: " ^ e));
  let replay_wall = Unix.gettimeofday () -. t_run in
  if not (Net.Server.drain server) then prerr_endline "soak: drain timed out";
  Net.Server.stop server;
  List.iter (fun (_, _, _, _, thread) -> Thread.join thread) subs;
  List.iter
    (fun (q, _, _, err, _) -> if !err <> "" then prerr_endline ("soak " ^ q ^ ": " ^ !err))
    subs;
  (* -- accounting ---------------------------------------------------- *)
  let snap = E.metrics_snapshot eng in
  let counter name =
    match Metrics.find snap name with Some (Metrics.Counter n) -> n | _ -> 0
  in
  let hist name =
    match Metrics.find snap name with Some (Metrics.Histogram h) -> Some h | _ -> None
  in
  let sum_counters ~prefix ~suffix =
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | Metrics.Counter n
          when String.starts_with ~prefix name && Filename.check_suffix name suffix ->
            acc + n
        | _ -> acc)
      0 snap
  in
  let source_out = counter "rts.node.eth0.tcp.tuples_out" in
  let chan_drops = sum_counters ~prefix:"rts.chan." ~suffix:".drops" in
  let shed = sum_counters ~prefix:"rts.shed." ~suffix:"" in
  let egress_drops = counter "net.subscriber.drops" in
  let client_gap_tuples = List.fold_left (fun acc (_, _, g, _, _) -> acc + !g) 0 subs in
  let delivered_total = List.fold_left (fun acc (_, d, _, _, _) -> acc + !d) 0 subs in
  let lost = chan_drops + shed + egress_drops in
  let loss_pct = 100.0 *. float_of_int lost /. float_of_int (max 1 source_out) in
  let loss_ok = loss_pct <= soak_loss_threshold_pct in
  let gaps_conserved = client_gap_tuples = egress_drops in
  let hist_ms name =
    match hist name with
    | Some h when h.Metrics.h_count > 0 ->
        Some (h.Metrics.h_count, h.Metrics.h_p50 /. 1e6, h.Metrics.h_p90 /. 1e6, h.Metrics.h_p99 /. 1e6)
    | _ -> None
  in
  let p99_sane =
    List.for_all
      (fun q ->
        match hist_ms ("rts.latency." ^ q) with
        | Some (_, _, _, p99) -> p99 <= soak_sane_p99_ms
        | None -> true)
      e2_names
  in
  Printf.printf "replay: %.2fs wall (%.0f pkt/s paced, %.0f achieved)\n" replay_wall
    (float_of_int n_packets /. duration)
    (float_of_int n_packets /. replay_wall);
  Printf.printf
    "source tuples %d  delivered %d  chan drops %d  shed %d  egress drops %d  gaps@clients %d\n"
    source_out delivered_total chan_drops shed egress_drops client_gap_tuples;
  Printf.printf "%-14s %10s %8s  %-26s %-26s\n" "query" "delivered" "gaps" "rts p50/p90/p99 ms"
    "net p50/p90/p99 ms";
  let query_rows =
    List.map
      (fun (q, delivered, gaps, _, _) ->
        let render = function
          | Some (_, p50, p90, p99) -> Printf.sprintf "%.2f/%.2f/%.2f" p50 p90 p99
          | None -> "-"
        in
        let rts_h = hist_ms ("rts.latency." ^ q) and net_h = hist_ms ("net.latency." ^ q) in
        Printf.printf "%-14s %10d %8d  %-26s %-26s\n" q !delivered !gaps (render rts_h)
          (render net_h);
        let lat_json = function
          | Some (count, p50, p90, p99) ->
              Json.Obj
                [
                  ("samples", Json.Int count);
                  ("p50_ms", Json.Float p50);
                  ("p90_ms", Json.Float p90);
                  ("p99_ms", Json.Float p99);
                ]
          | None -> Json.Obj []
        in
        Json.Obj
          [
            ("query", Json.Str q);
            ("delivered", Json.Int !delivered);
            ("gap_tuples", Json.Int !gaps);
            ("rts_latency", lat_json rts_h);
            ("net_latency", lat_json net_h);
          ])
      subs
  in
  Json.to_file "BENCH_soak.json"
    (Json.Obj
       [
         ("bench", Json.Str "soak");
         ( "description",
           Json.Str
             "paced end-to-end replay through the loopback wire protocol: loss vs. the 2% doctrine, gap conservation, ingest-to-deliver latency per query" );
         ("meta", run_meta ~state:(state_peak_rows eng) ~wall_s:(Unix.gettimeofday () -. t_start) ());
         ( "config",
           Json.Obj
             [
               ("duration_s", Json.Float duration);
               ("rate_mbps", Json.Float rate);
               ("packets", Json.Int n_packets);
               ("latency_sample", Json.Int latency_every);
               ("queries", Json.Int n_subs);
               ("egress_policy", Json.Str "drop");
             ] );
         ( "replay",
           Json.Obj
             [
               ("wall_s", Json.Float replay_wall);
               ("paced_pkts_per_s", Json.Float (float_of_int n_packets /. duration));
               ("achieved_pkts_per_s", Json.Float (float_of_int n_packets /. replay_wall));
             ] );
         ( "loss",
           Json.Obj
             [
               ("source_tuples", Json.Int source_out);
               ("delivered_tuples", Json.Int delivered_total);
               ("channel_drops", Json.Int chan_drops);
               ("shed_tuples", Json.Int shed);
               ("egress_drops", Json.Int egress_drops);
               ("loss_pct", Json.Float loss_pct);
               ("threshold_pct", Json.Float soak_loss_threshold_pct);
               ("pass", Json.Bool loss_ok);
             ] );
         ( "gap_conservation",
           Json.Obj
             [
               ("egress_drops", Json.Int egress_drops);
               ("client_gap_tuples", Json.Int client_gap_tuples);
               ("conserved", Json.Bool gaps_conserved);
             ] );
         ("p99_sane", Json.Bool p99_sane);
         ("queries", Json.List query_rows);
       ]);
  Printf.printf "loss %.3f%% (threshold %.1f%%) %s  gap conservation %s  p99 sanity %s\n"
    loss_pct soak_loss_threshold_pct
    (if loss_ok then "PASS" else "FAIL")
    (if gaps_conserved then "PASS" else "FAIL")
    (if p99_sane then "PASS" else "FAIL");
  if not (loss_ok && gaps_conserved && p99_sane) then exit 1

(* ------------------------------------------------------------- micro --- *)

let run_micro () =
  section "M1-M8: micro-costs of operators and substrates (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  (* shared fixtures *)
  let gen = Traffic.Gen.create { Traffic.Gen.default with Traffic.Gen.duration = 1e9; seed = 31 } in
  let pkts = Array.init 512 (fun _ -> Option.get (Traffic.Gen.next gen)) in
  let wires = Array.map Gigascope_packet.Packet.encode pkts in
  let proto = Option.get (Gigascope.Default_protocols.find "tcp") in
  let tuples = Array.map (fun p -> Option.get (proto.Gigascope.Default_protocols.interpret p)) pkts in
  let payloads = Array.map (fun p -> Bytes.to_string (Gigascope_packet.Packet.payload p)) pkts in
  let idx = ref 0 in
  let next n = let i = !idx in idx := (i + 1) land 511; i mod n in
  let rx = Gigascope_regex.Regex.compile "^[^\\n]*HTTP/1.*" in
  let bpf_prog =
    Gigascope_bpf.Filter.(compile (And (Cmp (Ip_protocol, Eq, 6), Cmp (Dst_port, Eq, 80))))
  in
  let lpm =
    Gigascope_lpm.Table.of_entries
      (List.init 256 (fun i -> (Printf.sprintf "%d.0.0.0/8" i, i)))
  in
  let lfta =
    Rts.Lfta_aggregate.make
      {
        Rts.Lfta_aggregate.table_bits = 12;
        pred = None;
        keys = [| (fun t -> t.(9)); (fun t -> t.(10)) |];
        epoch_key = None;
        direction = Rts.Order_prop.Asc;
        band = 0.0;
        aggs = [| { Rts.Agg_fn.kind = Rts.Agg_fn.Count; arg = None } |];
        assemble = Array.copy;
        punct_in = None;
        epoch_out = None;
      }
  in
  let lfta_op = Rts.Lfta_aggregate.op lfta in
  let sinkhole _ = () in
  let tests =
    [
      Test.make ~name:"packet-decode+interpret"
        (Staged.stage (fun () ->
             let i = next 512 in
             match Gigascope_packet.Packet.decode ~ts:0.0 wires.(i) with
             | Ok p -> ignore (proto.Gigascope.Default_protocols.interpret p)
             | Error _ -> ()));
      Test.make ~name:"bpf-filter"
        (Staged.stage (fun () ->
             let i = next 512 in
             ignore (Gigascope_bpf.Vm.run bpf_prog wires.(i))));
      Test.make ~name:"regex-http"
        (Staged.stage (fun () ->
             let i = next 512 in
             ignore (Gigascope_regex.Regex.matches rx payloads.(i))));
      Test.make ~name:"lpm-lookup"
        (Staged.stage (fun () ->
             let i = next 512 in
             match tuples.(i).(9) with
             | Value.Ip ip -> ignore (Gigascope_lpm.Table.lookup lpm ip)
             | _ -> ()));
      Test.make ~name:"lfta-agg-step"
        (Staged.stage (fun () ->
             let i = next 512 in
             lfta_op.Rts.Operator.on_tuple ~input:0 tuples.(i) ~emit:sinkhole));
      Test.make ~name:"tuple-hash"
        (Staged.stage (fun () ->
             let i = next 512 in
             ignore (Value.hash_array tuples.(i))));
      Test.make ~name:"checksum-750B"
        (Staged.stage (fun () ->
             let i = next 512 in
             ignore (Gigascope_packet.Checksum.compute wires.(i) 0 (Bytes.length wires.(i)))));
    ]
  in
  let instances = Instance.[monotonic_clock] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [est] -> Printf.printf "%-28s %12.1f ns/op\n%!" name est
          | _ -> Printf.printf "%-28s %12s\n%!" name "n/a")
        analyzed)
    tests

(* ------------------------------------------------------------- main --- *)

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let all =
    [ ("e1", run_e1); ("e2", run_e2); ("a1", run_a1); ("a2", run_a2); ("a3", run_a3);
      ("a4", run_a4); ("a5", run_a5); ("soak", run_soak); ("micro", run_micro) ]
  in
  match List.assoc_opt which all with
  | Some f -> f ()
  | None ->
      if which = "all" then List.iter (fun (_, f) -> f ()) all
      else begin
        Printf.eprintf "unknown benchmark %s (use: %s | all)\n" which
          (String.concat " | " (List.map fst all));
        exit 1
      end
