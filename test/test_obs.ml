(* Tests for the observability layer: registry semantics, snapshots and
   deltas, histogram percentiles, JSON/Prometheus exposition, and an
   end-to-end check that the runtime's own metrics agree with what a
   query actually did to a known packet list. *)

module Metrics = Gigascope_obs.Metrics
module E = Gigascope.Engine
module Rts = Gigascope_rts
module Packet = Gigascope_packet.Packet
module Ipaddr = Gigascope_packet.Ipaddr

let check = Alcotest.check

(* ----------------------------- clock ------------------------------------ *)

(* The timing clock must be monotonic: a wall-clock step (NTP, manual
   date change) during a run must never yield a negative duration or a
   nonsense rate. Only differences of readings are meaningful. *)
let test_clock_monotonic () =
  let prev = ref (Gigascope_obs.Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Gigascope_obs.Clock.now_ns () in
    if t < !prev then
      Alcotest.failf "clock went backwards: %.0f -> %.0f" !prev t;
    prev := t
  done

let test_clock_measures_elapsed_time () =
  let t0 = Gigascope_obs.Clock.now_ns () in
  Unix.sleepf 0.05;
  let dt = Gigascope_obs.Clock.now_ns () -. t0 in
  (* a 50 ms sleep reads as at least 40 ms and at most 10 s, whatever the
     scheduler does to us *)
  check Alcotest.bool "delta in nanoseconds" true (dt >= 4e7 && dt < 1e10)

(* ----------------------------- cells ----------------------------------- *)

let test_counter_cell () =
  let c = Metrics.Counter.make () in
  check Alcotest.int "starts at zero" 0 (Metrics.Counter.get c);
  Metrics.Counter.incr c;
  Metrics.Counter.add c 41;
  check Alcotest.int "incr + add" 42 (Metrics.Counter.get c);
  Metrics.Counter.reset c;
  check Alcotest.int "reset" 0 (Metrics.Counter.get c)

let test_gauge_cell () =
  let g = Metrics.Gauge.make () in
  Metrics.Gauge.set g 2.5;
  check (Alcotest.float 1e-9) "set" 2.5 (Metrics.Gauge.get g);
  Metrics.Gauge.set_int g 7;
  check (Alcotest.float 1e-9) "set_int" 7.0 (Metrics.Gauge.get g)

let test_histogram_percentiles () =
  let h = Metrics.Histogram.make () in
  (* 1..100: exact percentiles are known *)
  for i = 1 to 100 do
    Metrics.Histogram.observe h (float_of_int i)
  done;
  let reg = Metrics.create () in
  Metrics.attach_histogram reg "h" h;
  match Metrics.find (Metrics.snapshot reg) "h" with
  | Some (Metrics.Histogram s) ->
      check Alcotest.int "count" 100 s.Metrics.h_count;
      check (Alcotest.float 1e-6) "total" 5050.0 s.Metrics.h_total;
      check (Alcotest.float 1e-6) "mean" 50.5 s.Metrics.h_mean;
      check (Alcotest.float 1e-6) "min" 1.0 s.Metrics.h_min;
      check (Alcotest.float 1e-6) "max" 100.0 s.Metrics.h_max;
      check Alcotest.bool "p50 near median" true (abs_float (s.Metrics.h_p50 -. 50.5) <= 2.0);
      check Alcotest.bool "p90 near 90" true (abs_float (s.Metrics.h_p90 -. 90.0) <= 2.0);
      check Alcotest.bool "p99 near 99" true (abs_float (s.Metrics.h_p99 -. 99.0) <= 2.0)
  | _ -> Alcotest.fail "histogram missing from snapshot"

(* --------------------------- registration ------------------------------ *)

let test_get_or_create () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg "x" in
  let b = Metrics.counter reg "x" in
  Metrics.Counter.incr a;
  check Alcotest.int "same cell" 1 (Metrics.Counter.get b)

let test_kind_mismatch () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics: x is a counter, not a gauge") (fun () ->
      ignore (Metrics.gauge reg "x"))

let test_attach_duplicate () =
  let reg = Metrics.create () in
  Metrics.attach_counter reg "dup" (Metrics.Counter.make ());
  check Alcotest.bool "raises on duplicate attach" true
    (try
       Metrics.attach_counter reg "dup" (Metrics.Counter.make ());
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "even across kinds" true
    (try
       Metrics.attach_gauge reg "dup" (Metrics.Gauge.make ());
       false
     with Invalid_argument _ -> true)

let test_names_sorted_and_remove () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "b.z");
  ignore (Metrics.gauge reg "a.y");
  ignore (Metrics.counter reg "b.a");
  check Alcotest.(list string) "sorted" ["a.y"; "b.a"; "b.z"] (Metrics.names reg);
  Metrics.remove reg "b.a";
  check Alcotest.bool "removed" false (Metrics.mem reg "b.a")

let test_gauge_fn_polled () =
  let reg = Metrics.create () in
  let depth = ref 3 in
  Metrics.attach_gauge_fn reg "depth" (fun () -> float_of_int !depth);
  (match Metrics.find (Metrics.snapshot reg) "depth" with
  | Some (Metrics.Gauge v) -> check (Alcotest.float 1e-9) "first read" 3.0 v
  | _ -> Alcotest.fail "gauge_fn missing");
  depth := 9;
  match Metrics.find (Metrics.snapshot reg) "depth" with
  | Some (Metrics.Gauge v) -> check (Alcotest.float 1e-9) "polled at snapshot" 9.0 v
  | _ -> Alcotest.fail "gauge_fn missing"

(* --------------------------- snapshot/delta ---------------------------- *)

let test_snapshot_delta () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  let g = Metrics.gauge reg "g" in
  Metrics.Counter.add c 10;
  Metrics.Gauge.set g 5.0;
  let d1 = Metrics.delta reg in
  (match Metrics.find d1 "c" with
  | Some (Metrics.Counter n) -> check Alcotest.int "first delta = absolute" 10 n
  | _ -> Alcotest.fail "c missing");
  Metrics.Counter.add c 7;
  Metrics.Gauge.set g 2.0;
  let d2 = Metrics.delta reg in
  (match Metrics.find d2 "c" with
  | Some (Metrics.Counter n) -> check Alcotest.int "counter differenced" 7 n
  | _ -> Alcotest.fail "c missing");
  match Metrics.find d2 "g" with
  | Some (Metrics.Gauge v) -> check (Alcotest.float 1e-9) "gauge absolute" 2.0 v
  | _ -> Alcotest.fail "g missing"

let test_diff_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "h" in
  Metrics.Histogram.observe h 10.0;
  Metrics.Histogram.observe h 20.0;
  let before = Metrics.snapshot reg in
  Metrics.Histogram.observe h 30.0;
  let after = Metrics.snapshot reg in
  match Metrics.find (Metrics.diff ~before ~after) "h" with
  | Some (Metrics.Histogram s) ->
      check Alcotest.int "count differenced" 1 s.Metrics.h_count;
      check (Alcotest.float 1e-6) "total differenced" 30.0 s.Metrics.h_total;
      (* shape comes from [after]: max over all 3 observations *)
      check (Alcotest.float 1e-6) "shape absolute" 30.0 s.Metrics.h_max
  | _ -> Alcotest.fail "h missing"

let test_diff_new_name_passthrough () =
  let reg = Metrics.create () in
  let before = Metrics.snapshot reg in
  Metrics.Counter.add (Metrics.counter reg "late") 4;
  let after = Metrics.snapshot reg in
  match Metrics.find (Metrics.diff ~before ~after) "late" with
  | Some (Metrics.Counter n) -> check Alcotest.int "new name passes through" 4 n
  | _ -> Alcotest.fail "late missing"

(* --------------------------- exposition -------------------------------- *)

let full_registry () =
  let reg = Metrics.create () in
  Metrics.Counter.add (Metrics.counter reg "rts.node.q.tuples_in") 12345;
  Metrics.Gauge.set (Metrics.gauge reg "rts.chan.a->b.depth") 3.25;
  let h = Metrics.histogram reg "rts.node.q.service_ns" in
  List.iter (Metrics.Histogram.observe h) [1.0; 2.0; 4.0; 8.0; 16.0];
  reg

let test_json_roundtrip () =
  let snap = Metrics.snapshot (full_registry ()) in
  match Metrics.of_json (Metrics.to_json snap) with
  | Error e -> Alcotest.fail ("of_json: " ^ e)
  | Ok back ->
      check Alcotest.int "same length" (List.length snap) (List.length back);
      List.iter2
        (fun (n1, v1) (n2, v2) ->
          check Alcotest.string "name" n1 n2;
          match (v1, v2) with
          | Metrics.Counter a, Metrics.Counter b -> check Alcotest.int "counter" a b
          | Metrics.Gauge a, Metrics.Gauge b -> check (Alcotest.float 1e-12) "gauge" a b
          | Metrics.Histogram a, Metrics.Histogram b ->
              check Alcotest.int "h.count" a.Metrics.h_count b.Metrics.h_count;
              check (Alcotest.float 1e-12) "h.total" a.Metrics.h_total b.Metrics.h_total;
              check (Alcotest.float 1e-12) "h.p99" a.Metrics.h_p99 b.Metrics.h_p99
          | _ -> Alcotest.fail ("kind mismatch at " ^ n1))
        snap back

let test_json_rejects_garbage () =
  check Alcotest.bool "garbage rejected" true (Result.is_error (Metrics.of_json "not json"));
  check Alcotest.bool "truncated rejected" true
    (Result.is_error (Metrics.of_json {|{"x": {"type": "counter", |}))

(* A strict exposition-format checker. Every line must parse as a HELP
   comment, a TYPE comment, or a sample; metric names must be legal;
   HELP precedes TYPE, TYPE precedes its family's samples, neither
   repeats; label blocks and sample values must parse. This is what a
   real scraper enforces — substring spot-checks alone would accept an
   exposition Prometheus rejects. *)
let check_prometheus_conformance text =
  let is_name_start c = match c with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false in
  let is_name_char c = is_name_start c || match c with '0' .. '9' -> true | _ -> false in
  let legal_name n = n <> "" && is_name_start n.[0] && String.for_all is_name_char n in
  let helped = Hashtbl.create 16 and typed = Hashtbl.create 16 in
  let fail line msg = Alcotest.failf "prometheus conformance: %s in %S" msg line in
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  List.iter
    (fun line ->
      if line = "" then () (* the trailing newline *)
      else if starts_with "# HELP " line then begin
        let rest = String.sub line 7 (String.length line - 7) in
        let name =
          match String.index_opt rest ' ' with Some i -> String.sub rest 0 i | None -> rest
        in
        if not (legal_name name) then fail line "illegal name in HELP";
        if Hashtbl.mem helped name then fail line "duplicate HELP";
        if Hashtbl.mem typed name then fail line "HELP after TYPE";
        Hashtbl.replace helped name ()
      end
      else if starts_with "# TYPE " line then begin
        let rest = String.sub line 7 (String.length line - 7) in
        match String.split_on_char ' ' rest with
        | [ name; ty ] ->
            if not (legal_name name) then fail line "illegal name in TYPE";
            if not (List.mem ty [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ]) then
              fail line "unknown metric type";
            if Hashtbl.mem typed name then fail line "duplicate TYPE";
            Hashtbl.replace typed name ()
        | _ -> fail line "malformed TYPE line"
      end
      else if line.[0] = '#' then fail line "unrecognized comment"
      else begin
        (* sample: name[{label="value",...}] value *)
        let n = String.length line in
        let i = ref 0 in
        while !i < n && is_name_char line.[!i] do
          incr i
        done;
        let name = String.sub line 0 !i in
        if not (legal_name name) then fail line "illegal sample name";
        if !i < n && line.[!i] = '{' then begin
          incr i;
          let closed = ref false in
          while not !closed do
            let st = !i in
            while !i < n && is_name_char line.[!i] do
              incr i
            done;
            if !i = st then fail line "empty label name";
            if !i >= n || line.[!i] <> '=' then fail line "label missing '='";
            incr i;
            if !i >= n || line.[!i] <> '"' then fail line "label value not quoted";
            incr i;
            let value_done = ref false in
            while not !value_done do
              if !i >= n then fail line "unterminated label value"
              else
                match line.[!i] with
                | '"' ->
                    value_done := true;
                    incr i
                | '\\' ->
                    if !i + 1 >= n then fail line "dangling escape";
                    (match line.[!i + 1] with
                    | '\\' | '"' | 'n' -> i := !i + 2
                    | _ -> fail line "bad label escape")
                | _ -> incr i
            done;
            if !i < n && line.[!i] = ',' then incr i
            else if !i < n && line.[!i] = '}' then begin
              incr i;
              closed := true
            end
            else fail line "malformed label block"
          done
        end;
        if !i >= n || line.[!i] <> ' ' then fail line "missing value separator";
        let value = String.sub line (!i + 1) (n - !i - 1) in
        (match float_of_string_opt value with
        | Some _ -> ()
        | None -> if not (List.mem value [ "NaN"; "+Inf"; "-Inf" ]) then fail line "unparsable value");
        let family =
          let strip suffix s =
            let ls = String.length suffix and l = String.length s in
            if l > ls && String.sub s (l - ls) ls = suffix then Some (String.sub s 0 (l - ls))
            else None
          in
          if Hashtbl.mem typed name then name
          else
            match strip "_sum" name with
            | Some b when Hashtbl.mem typed b -> b
            | _ -> (
                match strip "_count" name with
                | Some b when Hashtbl.mem typed b -> b
                | _ -> fail line "sample precedes its TYPE")
        in
        if not (Hashtbl.mem helped family) then fail line "family has no HELP"
      end)
    (String.split_on_char '\n' text)

let test_prometheus_format () =
  let text = Metrics.to_prometheus (Metrics.snapshot (full_registry ())) in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "counter line" true (has "rts_node_q_tuples_in 12345");
  check Alcotest.bool "gauge sanitized" true (has "rts_chan_a__b_depth 3.25");
  check Alcotest.bool "summary count" true (has "rts_node_q_service_ns_count 5");
  check Alcotest.bool "summary sum" true (has "rts_node_q_service_ns_sum 31");
  check Alcotest.bool "quantile label" true (has "quantile=\"0.99\"");
  check Alcotest.bool "help line" true (has "# HELP rts_node_q_tuples_in ");
  check_prometheus_conformance text

(* Hostile registry names: whatever the runtime registers (channel
   names contain "->", user query names are free-form), the exposition
   must stay parseable by a strict scraper. *)
let test_prometheus_conformance_nasty () =
  let reg = Metrics.create () in
  Metrics.Counter.add (Metrics.counter reg "rts.chan.tcpdest0->portcounts.drops") 7;
  Metrics.Counter.add (Metrics.counter reg "weird metric name #1!") 1;
  Metrics.Counter.add (Metrics.counter reg "9starts.with.a-digit") 2;
  Metrics.Gauge.set (Metrics.gauge reg {|quotes"and\backslashes|}) 1.5;
  let h = Metrics.histogram reg "net.latency.spaced out query" in
  List.iter (Metrics.Histogram.observe h) [ 10.0; 20.0; 30.0 ];
  let text = Metrics.to_prometheus (Metrics.snapshot reg) in
  check_prometheus_conformance text;
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "arrow sanitized" true (has "rts_chan_tcpdest0__portcounts_drops 7");
  check Alcotest.bool "leading digit prefixed" true (has "_9starts_with_a_digit 2")

(* ------------------------- runtime integration ------------------------- *)

(* Known traffic through a real query: the registry must agree with the
   ground truth.  4 TCP packets, 3 to port 80 -> select passes 3, rejects 1. *)
let test_engine_metrics_ground_truth () =
  let ip = Ipaddr.of_string in
  let pkt ts dport =
    Packet.tcp ~ts ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:1234 ~dst_port:dport
      ~payload:(Bytes.of_string "x") ()
  in
  let engine = E.create ~shards:1 () in
  E.add_packet_list_interface engine ~name:"eth0"
    [pkt 1.0 80; pkt 1.1 443; pkt 1.2 80; pkt 1.3 80];
  (match
     E.install_query engine ~name:"web"
       {| SELECT time, srcip FROM eth0.tcp WHERE protocol = 6 and destport = 80 |}
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let rows = ref 0 in
  Result.get_ok (E.on_tuple engine "web" (fun _ -> incr rows));
  (match E.run engine () with Ok _ -> () | Error e -> Alcotest.fail e);
  let snap = E.metrics_snapshot engine in
  let counter name =
    match Metrics.find snap name with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  check Alcotest.int "callback saw the passes" 3 !rows;
  check Alcotest.int "node tuples_in" 4 (counter "rts.node.web.tuples_in");
  check Alcotest.int "node tuples_out" 3 (counter "rts.node.web.tuples_out");
  check Alcotest.int "select rejected" 1 (counter "rts.node.web.select.rejected");
  check Alcotest.int "channel carried all packets" 4 (counter "rts.chan.eth0.tcp->web.tuples_in");
  check Alcotest.int "no drops" 0 (counter "rts.chan.eth0.tcp->web.drops");
  check Alcotest.int "source emitted" 4 (counter "rts.node.eth0.tcp.tuples_out");
  check Alcotest.bool "scheduler rounds counted" true (counter "rts.scheduler.rounds" > 0)

(* LFTA aggregate: evictions + emitted appear and account for the input. *)
let test_engine_lfta_metrics () =
  let ip = Ipaddr.of_string in
  let pkt ts dport =
    Packet.tcp ~ts ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:1234 ~dst_port:dport
      ~payload:(Bytes.of_string "x") ()
  in
  (* tiny LFTA table (4 slots) + 64 distinct ports: collisions guaranteed *)
  let engine = E.create ~shards:1 () in
  E.add_packet_list_interface engine ~name:"eth0"
    (List.init 64 (fun i -> pkt (1.0 +. (0.001 *. float_of_int i)) (1000 + i)));
  (match
     E.install_query engine
       {| DEFINE { query_name ports; lfta_bits 2; }
          SELECT tb, destport, count(*) as cnt
          FROM eth0.tcp WHERE ipversion = 4
          GROUP BY time/1 as tb, destport |}
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Result.get_ok (E.on_tuple engine "ports" (fun _ -> ()));
  (match E.run engine () with Ok _ -> () | Error e -> Alcotest.fail e);
  let snap = E.metrics_snapshot engine in
  let counter name =
    match Metrics.find snap name with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  let evictions = counter "rts.node._lfta_ports.lfta.evictions" in
  let emitted = counter "rts.node._lfta_ports.lfta.emitted" in
  check Alcotest.int "lfta consumed everything" 64 (counter "rts.node._lfta_ports.tuples_in");
  check Alcotest.bool "collisions evicted" true (evictions > 0);
  check Alcotest.int "evictions are emissions" emitted (counter "rts.node._lfta_ports.tuples_out");
  check Alcotest.bool "every group left the table" true (emitted >= 60);
  match Metrics.find snap "rts.node._lfta_ports.lfta.slots" with
  | Some (Metrics.Gauge v) -> check (Alcotest.float 1e-9) "table size from lfta_bits" 4.0 v
  | _ -> Alcotest.fail "missing slots gauge"

(* Parallel run: the blocking cross-domain channels must export the full
   rts.xchannel.* instrument set — the same cells as their rts.chan
   family, plus blocked_ns — the scheduler must report its domain count
   (1 on a one-domain run, which has no cross edge), and all of it must
   survive both exposition formats. *)
let test_engine_xchannel_metrics () =
  let ip = Ipaddr.of_string in
  let pkt ts dport =
    Packet.tcp ~ts ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:1234 ~dst_port:dport
      ~payload:(Bytes.of_string "x") ()
  in
  let starts_with pre s =
    String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre
  in
  let ends_with suf s =
    let sl = String.length s and fl = String.length suf in
    sl >= fl && String.sub s (sl - fl) fl = suf
  in
  let run_on parallel =
    let engine = E.create () in
    E.add_packet_list_interface engine ~name:"eth0"
      (List.init 32 (fun i -> pkt (1.0 +. (0.01 *. float_of_int i)) (1000 + (i mod 4))));
    (match
       E.install_query engine
         {| DEFINE { query_name ports; }
            SELECT tb, destport, count(*) as cnt
            FROM eth0.tcp WHERE ipversion = 4
            GROUP BY time/1 as tb, destport |}
     with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    let rows = ref 0 in
    Result.get_ok (E.on_tuple engine "ports" (fun _ -> incr rows));
    (match E.run engine ~parallel () with Ok _ -> () | Error e -> Alcotest.fail e);
    check Alcotest.bool "run produced output" true (!rows > 0);
    E.metrics_snapshot engine
  in
  let domains_gauge snap =
    match Metrics.find snap "rts.scheduler.domains" with
    | Some (Metrics.Gauge v) -> v
    | _ -> Alcotest.fail "missing rts.scheduler.domains gauge"
  in
  let one = run_on 1 in
  check (Alcotest.float 1e-9) "one-domain run exports domains = 1" 1.0 (domains_gauge one);
  check Alcotest.bool "one domain: no cross-domain channel" false
    (List.exists (fun (n, _) -> starts_with "rts.xchannel." n) one);
  let snap = run_on 2 in
  let xchan = List.filter (fun (n, _) -> starts_with "rts.xchannel." n) snap in
  check Alcotest.bool "cross-domain channels registered" true (xchan <> []);
  let instrument suffix =
    check Alcotest.bool ("xchannel " ^ suffix ^ " exported") true
      (List.exists (fun (n, _) -> ends_with suffix n) xchan)
  in
  List.iter instrument
    [".tuples_in"; ".drops"; ".blocked_ns"; ".depth"; ".high_water"; ".batch_items"];
  List.iter
    (function
      | n, Metrics.Counter c when ends_with ".tuples_in" n ->
          let edge = String.sub n 13 (String.length n - 13) in
          check Alcotest.bool ("one count per edge: " ^ edge) true
            (Metrics.find snap ("rts.chan." ^ edge) = Some (Metrics.Counter c))
      | _ -> ())
    xchan;
  check Alcotest.bool "tuples crossed the domain boundary" true
    (List.exists
       (function n, Metrics.Counter c -> ends_with ".tuples_in" n && c > 0 | _ -> false)
       xchan);
  check Alcotest.bool "backpressure never dropped tuples" true
    (List.for_all
       (function n, Metrics.Counter c -> (not (ends_with ".drops" n)) || c = 0 | _ -> true)
       xchan);
  check (Alcotest.float 1e-9) "domain count exported" 2.0 (domains_gauge snap);
  (* exposition: the namespace survives JSON round-trip and Prometheus *)
  (match Metrics.of_json (Metrics.to_json snap) with
  | Error e -> Alcotest.fail ("of_json: " ^ e)
  | Ok back ->
      check Alcotest.bool "xchannel metrics survive JSON" true
        (List.exists (fun (n, _) -> starts_with "rts.xchannel." n) back));
  let prom = Metrics.to_prometheus snap in
  let has needle =
    let nl = String.length needle and tl = String.length prom in
    let rec go i = i + nl <= tl && (String.sub prom i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "prometheus xchannel lines" true (has "rts_xchannel_");
  check Alcotest.bool "prometheus domains gauge" true (has "rts_scheduler_domains 2")

(* End-to-end latency pipeline: with sampling armed, stamps placed at
   the source must survive the operator chain and close into the
   terminal node's rts.latency histogram; with sampling off the whole
   machinery must be invisible. Runs under whatever GIGASCOPE_BATCH /
   GIGASCOPE_PARALLEL the CI matrix sets — the stamp column rides
   batches and cross-domain hops alike. *)
let test_latency_pipeline () =
  let ip = Ipaddr.of_string in
  let pkt ts =
    Packet.tcp ~ts ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:1234 ~dst_port:80
      ~payload:(Bytes.of_string "x") ()
  in
  let n_pkts = 600 and interval = 10 in
  let run_once ~latency_sample =
    let engine = E.create ~shards:1 () in
    E.add_packet_list_interface engine ~name:"eth0"
      (List.init n_pkts (fun i -> pkt (1.0 +. (0.001 *. float_of_int i))));
    (match
       E.install_query engine ~name:"web"
         {| SELECT time, srcip FROM eth0.tcp WHERE protocol = 6 |}
     with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    let seen = ref 0 and stamped = ref 0 in
    (match
       Rts.Manager.on_batch (E.manager engine) "web" (fun b ->
           seen := !seen + Rts.Batch.n_tuples b;
           match Rts.Batch.stamps b with
           | Some st -> Array.iter (fun s -> if s <> 0 then incr stamped) st
           | None -> ())
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    (match E.run engine ~latency_sample () with Ok _ -> () | Error e -> Alcotest.fail e);
    let snap = E.metrics_snapshot engine in
    let lat_count =
      match Metrics.find snap "rts.latency.web" with
      | Some (Metrics.Histogram h) -> h.Metrics.h_count
      | _ -> Alcotest.fail "missing rts.latency.web histogram"
    in
    (!seen, !stamped, lat_count, snap)
  in
  (* armed: every tuple delivered, some stamped, histogram agrees *)
  let seen, stamped, lat_count, snap = run_once ~latency_sample:interval in
  check Alcotest.int "all tuples delivered" n_pkts seen;
  check Alcotest.bool "some tuples stamped" true (stamped > 0);
  (* consume-once propagation can merge stamps that share a batch, so
     the delivered count is bounded by the source's sample count *)
  check Alcotest.bool "stamp count bounded by sample rate" true (stamped <= n_pkts / interval);
  check Alcotest.int "histogram counts the stamped tuples" stamped lat_count;
  (match Metrics.find snap "rts.latency.web" with
  | Some (Metrics.Histogram h) ->
      check Alcotest.bool "latency non-negative" true (h.Metrics.h_min >= 0.0);
      check Alcotest.bool "latency sane (under 100s)" true (h.Metrics.h_max < 1e11)
  | _ -> Alcotest.fail "missing rts.latency.web histogram");
  (match Metrics.find snap "rts.scheduler.latency_sample" with
  | Some (Metrics.Gauge v) -> check (Alcotest.float 1e-9) "interval gauge" (float_of_int interval) v
  | _ -> Alcotest.fail "missing rts.scheduler.latency_sample gauge");
  (* off (the default): no stamps anywhere, empty histogram *)
  let seen_off, stamped_off, lat_count_off, _ = run_once ~latency_sample:0 in
  check Alcotest.int "all tuples delivered (off)" n_pkts seen_off;
  check Alcotest.int "no stamps when off" 0 stamped_off;
  check Alcotest.int "empty histogram when off" 0 lat_count_off

let () =
  Alcotest.run "obs"
    [
      ( "cells",
        [
          Alcotest.test_case "counter" `Quick test_counter_cell;
          Alcotest.test_case "gauge" `Quick test_gauge_cell;
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "measures elapsed time" `Quick test_clock_measures_elapsed_time;
        ] );
      ( "registry",
        [
          Alcotest.test_case "get-or-create" `Quick test_get_or_create;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "attach duplicate" `Quick test_attach_duplicate;
          Alcotest.test_case "names sorted, remove" `Quick test_names_sorted_and_remove;
          Alcotest.test_case "polled gauge" `Quick test_gauge_fn_polled;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "delta" `Quick test_snapshot_delta;
          Alcotest.test_case "diff histogram" `Quick test_diff_histogram;
          Alcotest.test_case "diff new-name passthrough" `Quick test_diff_new_name_passthrough;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "prometheus" `Quick test_prometheus_format;
          Alcotest.test_case "prometheus conformance (hostile names)" `Quick
            test_prometheus_conformance_nasty;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "select ground truth" `Quick test_engine_metrics_ground_truth;
          Alcotest.test_case "lfta table metrics" `Quick test_engine_lfta_metrics;
          Alcotest.test_case "xchannel metrics (parallel)" `Quick test_engine_xchannel_metrics;
          Alcotest.test_case "latency pipeline" `Quick test_latency_pipeline;
        ] );
    ]
