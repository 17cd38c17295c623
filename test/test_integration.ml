(* End-to-end integration tests: GSQL text compiled, installed, and run
   through the engine over crafted packet lists, with exact expected
   results. These exercise the whole stack at once — interpretation,
   LFTA/HFTA split, punctuation, heartbeats, UDFs with handles, query
   parameters, composition, merge, join, sampling, pcap replay. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Gsql = Gigascope_gsql
module Value = Rts.Value
module Packet = Gigascope_packet.Packet
module Tcp = Gigascope_packet.Tcp
module Ipaddr = Gigascope_packet.Ipaddr

let check = Alcotest.check

let ip = Ipaddr.of_string

(* crafted packets: ts, src, dst, sport, dport, payload *)
let tcp_pkt ts src dst sport dport payload =
  Packet.tcp ~ts ~src:(ip src) ~dst:(ip dst) ~src_port:sport ~dst_port:dport
    ~payload:(Bytes.of_string payload) ()

let udp_pkt ts src dst sport dport payload =
  Packet.udp ~ts ~src:(ip src) ~dst:(ip dst) ~src_port:sport ~dst_port:dport
    ~payload:(Bytes.of_string payload) ()

let collect engine name =
  let rows = ref [] in
  Result.get_ok (E.on_tuple engine name (fun t -> rows := Array.copy t :: !rows));
  fun () -> List.rev !rows

let run engine = match E.run engine () with Ok s -> s | Error e -> Alcotest.fail e

let install engine ?params text =
  match E.install_program engine ?params text with
  | Ok insts -> insts
  | Error e -> Alcotest.fail e

let row_to_string row =
  String.concat "," (List.map Value.to_string (Array.to_list row))

let check_rows name expected got =
  check Alcotest.(list string) name expected (List.map row_to_string got)

(* ------------------------- exact selection ------------------------------ *)

let test_selection_exact () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1111 80 "a";
      tcp_pkt 2.0 "10.0.0.3" "10.0.0.4" 2222 443 "b";
      udp_pkt 3.0 "10.0.0.5" "10.0.0.6" 3333 80 "c";
      tcp_pkt 4.0 "10.0.0.7" "10.0.0.8" 4444 80 "d";
    ];
  ignore
    (install engine
       {| DEFINE { query_name web; }
          SELECT time, srcip FROM eth0.tcp WHERE protocol = 6 and destport = 80 |});
  let got = collect engine "web" in
  ignore (run engine);
  check_rows "only tcp port-80 rows" ["1,10.0.0.1"; "4,10.0.0.7"] (got ())

(* --------------------- split aggregation, exact ------------------------- *)

let test_aggregation_exact () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.5 "10.0.0.1" "10.0.0.2" 1 80 "xx";    (* tb 0 *)
      tcp_pkt 0.9 "10.0.0.1" "10.0.0.2" 1 80 "yyy";   (* tb 0 *)
      tcp_pkt 1.2 "10.0.0.1" "10.0.0.2" 1 443 "zzzz"; (* tb 1, port 443 *)
      tcp_pkt 1.7 "10.0.0.1" "10.0.0.2" 1 80 "w";     (* tb 1 *)
      tcp_pkt 2.3 "10.0.0.1" "10.0.0.2" 1 80 "v";     (* tb 2 *)
    ];
  ignore
    (install engine
       {| DEFINE { query_name perport; }
          SELECT tb, destport, count(*) as cnt, sum(data_length) as bytes
          FROM eth0.tcp WHERE protocol = 6
          GROUP BY time/1 as tb, destport |});
  let got = collect engine "perport" in
  ignore (run engine);
  (* the split LFTA/HFTA pipeline must produce exactly the offline answer *)
  check_rows "grouped counts and sums"
    ["0,80,2,5"; "1,80,1,1"; "1,443,1,4"; "2,80,1,1"]
    (List.sort compare (got ()))

let test_avg_split_exact () =
  (* avg is the aggregate that truly tests sub/super splitting: the LFTA
     emits (sum, count) partials; the HFTA recombines with fdiv *)
  let engine = E.create ~shards:1 () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 "aa";      (* len 2 *)
      tcp_pkt 0.2 "10.0.0.1" "10.0.0.2" 1 80 "bbbb";    (* len 4 *)
      tcp_pkt 0.3 "10.0.0.1" "10.0.0.2" 1 80 "cccccc";  (* len 6 *)
    ];
  let insts =
    install engine
      {| DEFINE { query_name avgq; }
         SELECT tb, avg(data_length) as alen
         FROM eth0.tcp WHERE protocol = 6
         GROUP BY time/1 as tb |}
  in
  (* confirm the query really did split *)
  let inst = List.hd insts in
  check Alcotest.bool "query was split into LFTA+HFTA" true
    (List.length inst.Gsql.Codegen.node_names = 2);
  let got = collect engine "avgq" in
  ignore (run engine);
  match got () with
  | [[| Value.Int 0; Value.Float a |]] -> check (Alcotest.float 1e-9) "avg = 4.0" 4.0 a
  | rows -> Alcotest.failf "unexpected rows: %s" (String.concat ";" (List.map row_to_string rows))

let test_having_exact () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "9.9.9.9" 1 80 "";
      tcp_pkt 0.2 "10.0.0.2" "9.9.9.9" 1 80 "";
      tcp_pkt 0.3 "10.0.0.3" "8.8.8.8" 1 80 "";
    ];
  ignore
    (install engine
       {| DEFINE { query_name busy; }
          SELECT tb, destip, count(*) as c FROM eth0.tcp
          GROUP BY time/1 as tb, destip
          HAVING count(*) >= 2 |});
  let got = collect engine "busy" in
  ignore (run engine);
  check_rows "having keeps only the busy destination" ["0,9.9.9.9,2"] (got ())

(* ------------------------- query composition ---------------------------- *)

let test_composition () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 "aaaa";
      tcp_pkt 0.4 "10.0.0.1" "10.0.0.2" 1 22 "bb";
      tcp_pkt 0.7 "10.0.0.1" "10.0.0.2" 1 80 "c";
    ];
  ignore
    (install engine
       {|
       DEFINE { query_name base; }
       SELECT time, destport, data_length FROM eth0.tcp WHERE protocol = 6

       DEFINE { query_name weblen; }
       SELECT time, data_length FROM base WHERE destport = 80

       DEFINE { query_name total; }
       SELECT tb, sum(data_length) as s FROM weblen GROUP BY time/1 as tb
     |});
  let got = collect engine "total" in
  ignore (run engine);
  check_rows "three-deep composition" ["0,5"] (got ())

(* ---------------------------- parameters -------------------------------- *)

let test_query_parameters () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 "";
      tcp_pkt 0.2 "10.0.0.1" "10.0.0.2" 1 443 "";
      tcp_pkt 0.3 "10.0.0.1" "10.0.0.2" 1 8080 "";
    ];
  ignore
    (install engine
       ~params:[("watch_port", Value.Int 443)]
       {| DEFINE { query_name watched; }
          SELECT time, destport FROM eth0.tcp WHERE protocol = 6 and destport = $watch_port |});
  let got = collect engine "watched" in
  ignore (run engine);
  check_rows "parameter bound at instantiation" ["0,443"] (got ())

let test_missing_parameter_discards () =
  (* an unset parameter means the predicate can never hold *)
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" [tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 ""];
  ignore
    (install engine
       {| DEFINE { query_name unset; }
          SELECT time FROM eth0.tcp WHERE destport = $never_set |});
  let got = collect engine "unset" in
  ignore (run engine);
  check Alcotest.int "no tuples" 0 (List.length (got ()))

(* ------------------------ UDFs and handles ------------------------------ *)

let test_getlpmid_partial_function () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.1.0.9" 1 80 "";  (* matches 10/8 -> id 7018 *)
      tcp_pkt 0.2 "10.0.0.1" "11.0.0.9" 1 80 "";  (* matches 11/8 -> id 701 *)
      tcp_pkt 0.3 "10.0.0.1" "12.0.0.9" 1 80 "";  (* no prefix: discarded *)
    ];
  let table = Filename.temp_file "peers" ".tbl" in
  let oc = open_out table in
  output_string oc "10.0.0.0/8 7018\n11.0.0.0/8 701\n";
  close_out oc;
  ignore
    (install engine
       (Printf.sprintf
          {| DEFINE { query_name peers; }
             SELECT peer, count(*) as c FROM eth0.tcp
             GROUP BY time/10 as tb, getlpmid(destip, '%s') as peer |}
          table));
  let got = collect engine "peers" in
  ignore (run engine);
  Sys.remove table;
  check_rows "per-peer counts; unmatched discarded" ["7018,1"; "701,1"]
    (List.sort (fun a b -> compare b a) (got ()))

let test_regex_udf_split_pipeline () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 "GET / HTTP/1.1\r\n";
      tcp_pkt 0.2 "10.0.0.1" "10.0.0.2" 1 80 "\nbinary tunnel junk";
      tcp_pkt 0.3 "10.0.0.1" "10.0.0.2" 1 80 "HTTP/1.0 200 OK";
    ];
  ignore
    (install engine
       {| DEFINE { query_name http; }
          SELECT time FROM eth0.tcp
          WHERE protocol = 6 and destport = 80
            and str_match_regex(payload, '^[^\n]*HTTP/1.*') = TRUE |});
  let got = collect engine "http" in
  ignore (run engine);
  check_rows "regex filters through the split pipeline" ["0"; "0"] (got ())

(* --------------------- payload guards at the source ---------------------- *)

(* The source copies a payload only for packets some payload-reading
   LFTA's guard accepts (DESIGN §23). These queries read payloads
   beside the port-80 regex query, where no port-80 guard covers them. *)
let http_query =
  {| DEFINE { query_name http; }
     SELECT time FROM eth0.tcp
     WHERE ipversion = 4 and protocol = 6 and destport = 80
       and str_match_regex(payload, '^[^\n]*HTTP/1.*') = TRUE |}

let payload_packets =
  [
    tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1111 80 "GET / HTTP/1.1\r\n";
    tcp_pkt 0.2 "10.0.0.1" "10.0.0.2" 1112 443 "tls-hello";
    udp_pkt 0.3 "10.0.0.3" "10.0.0.4" 5353 53 "dns-q";
    tcp_pkt 0.4 "10.0.0.1" "10.0.0.2" 1113 80 "junk";
    udp_pkt 0.5 "10.0.0.3" "10.0.0.4" 5354 80 "udp80";
    Packet.icmp ~ts:0.6 ~src:(ip "10.0.0.5") ~dst:(ip "10.0.0.6") ~icmp_type:8
      ~payload:(Bytes.of_string "ping") ();
  ]

let payloads_copied engine =
  match
    Gigascope_obs.Metrics.find (E.metrics_snapshot engine) "rts.node.eth0.tcp.payloads"
  with
  | Some (Gigascope_obs.Metrics.Counter n) -> n
  | _ -> Alcotest.fail "no rts.node.eth0.tcp.payloads counter"

let test_payload_beyond_port80 () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" payload_packets;
  ignore
    (install engine
       (http_query
      ^ {| DEFINE { query_name udp_pay; }
           SELECT destport, payload FROM eth0.tcp WHERE protocol = 17
           DEFINE { query_name other_pay; }
           SELECT destport, payload FROM eth0.tcp WHERE protocol = 6 and destport <> 80 |}));
  let http = collect engine "http" in
  let udp_pay = collect engine "udp_pay" in
  let other_pay = collect engine "other_pay" in
  ignore (run engine);
  check_rows "the regex query" ["0"] (http ());
  check_rows "UDP payloads through eth0.tcp" ["53,\"dns-q\""; "80,\"udp80\""] (udp_pay ());
  check_rows "non-port-80 TCP payloads" ["443,\"tls-hello\""] (other_pay ());
  (* every packet but the ICMP one passes some guard *)
  check Alcotest.int "payloads copied" 5 (payloads_copied engine);
  let report = E.trace_report engine in
  let line =
    "  eth0.tcp: time, ipversion, protocol, destport, payload; payload when (ipversion = 4) \
     and (protocol = 6) and (destport = 80) or (protocol = 17) or (protocol = 6) and \
     (destport <> 80), 5 copied\n"
  in
  check Alcotest.bool "trace report: the source's fields and guards" true
    (List.mem line (List.map (fun l -> l ^ "\n") (String.split_on_char '\n' report)))

let test_payload_without_guard () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" payload_packets;
  ignore
    (install engine
       (http_query ^ {| DEFINE { query_name every_pay; } SELECT data_length, payload FROM eth0.tcp |}));
  let http = collect engine "http" in
  let every_pay = collect engine "every_pay" in
  ignore (run engine);
  check_rows "the regex query" ["0"] (http ());
  check_rows "a guardless payload query sees every payload"
    ["16,\"GET / HTTP/1.1\\r\\n\""; "9,\"tls-hello\""; "5,\"dns-q\""; "4,\"junk\""; "5,\"udp80\"";
     "4,\"ping\""]
    (every_pay ());
  check Alcotest.int "payloads copied" 6 (payloads_copied engine)

(* $p is no part of the guard: the flip must reach the payload copy. *)
let test_payload_guard_with_param () =
  let engine = E.create () in
  let packets =
    List.init 2000 (fun i ->
        let port = if i mod 2 = 0 then 80 else 443 in
        tcp_pkt (float_of_int i /. 1000.0) "10.0.0.1" "10.0.0.2" 1 port
          (Printf.sprintf "%d:%d" port i))
  in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  let insts =
    install engine
      ~params:[ ("p", Value.Int 80) ]
      (http_query
     ^ {| DEFINE { query_name watched; }
          SELECT destport, payload FROM eth0.tcp WHERE protocol = 6 and destport = $p |})
  in
  let inst = List.find (fun i -> i.Gsql.Codegen.inst_name = "watched") insts in
  let rows = ref [] in
  Result.get_ok (E.on_tuple engine "watched" (fun t -> rows := Array.copy t :: !rows));
  let flipped = ref false in
  (match
     E.run engine ~quantum:16
       ~on_round:(fun round ->
         if round = 20 && not !flipped then begin
           flipped := true;
           Gsql.Codegen.set_param inst "p" (Value.Int 443)
         end)
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let ports = List.map (fun t -> t.(0)) !rows in
  check Alcotest.bool "port 80 before the flip, 443 after" true
    (List.mem (Value.Int 80) ports && List.mem (Value.Int 443) ports);
  List.iter
    (fun t ->
      match (t.(0), t.(1)) with
      | Value.Int port, Value.Str s ->
          check Alcotest.bool "the payload of that packet" true
            (String.starts_with ~prefix:(string_of_int port ^ ":") s)
      | _ -> Alcotest.failf "payload missing: %s" (row_to_string t))
    !rows

(* A select sharded round-robin, reading payloads beside the regex
   query: sharded and unsharded output match each other and the
   packets' own payloads. *)
let test_payload_sharded_select () =
  let packets =
    List.init 400 (fun i ->
        tcp_pkt (float_of_int i /. 100.0) "10.0.0.1" "10.0.0.2" (1000 + i)
          (match i mod 3 with 0 -> 80 | 1 -> 443 | _ -> 22)
          (if i mod 5 = 0 then "GET / HTTP/1.1" else Printf.sprintf "p%d" i))
  in
  let outputs shards =
    let engine = E.create ~shards () in
    E.add_packet_list_interface engine ~name:"eth0" packets;
    ignore
      (install engine
         (http_query
        ^ {| DEFINE { query_name pays; }
             SELECT srcport, payload FROM eth0.tcp WHERE protocol = 6 and destport <> 80 |}));
    let http = collect engine "http" in
    let pays = collect engine "pays" in
    ignore (run engine);
    (List.map row_to_string (http ()), List.map row_to_string (pays ()))
  in
  let http1, pays1 = outputs 1 in
  let http2, pays2 = outputs 2 in
  let expected =
    List.filter_map
      (fun i ->
        if i mod 3 = 0 then None
        else
          Some
            (Printf.sprintf "%d,\"%s\"" (1000 + i)
               (if i mod 5 = 0 then "GET / HTTP/1.1" else Printf.sprintf "p%d" i)))
      (List.init 400 Fun.id)
  in
  check Alcotest.(list string) "unsharded payloads" expected pays1;
  check Alcotest.(list string) "sharded = unsharded" pays1 pays2;
  check Alcotest.(list string) "regex query unchanged by sharding" http1 http2;
  check Alcotest.int "regex matches" 27 (List.length http1)

(* A function in a payload query's predicate runs once per packet, in
   the LFTA: the source's guard leaves every Call out. Here the function
   keeps state, as a shard replica's round-robin owner does. *)
let test_payload_guard_skips_calls () =
  let engine = E.create ~shards:1 () in
  let calls = ref 0 in
  E.register_function engine
    (Rts.Func.pure ~name:"every_other" ~arg_tys:[ Rts.Ty.Int ] ~ret_ty:Rts.Ty.Bool (fun _ ->
         incr calls;
         Some (Value.Bool (!calls mod 2 = 1))));
  let packets =
    List.init 10 (fun i -> tcp_pkt (float_of_int i) "10.0.0.1" "10.0.0.2" 1 80 (string_of_int i))
  in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  ignore
    (install engine
       {| DEFINE { query_name halves; }
          SELECT payload FROM eth0.tcp WHERE destport = 80 and every_other(destport) = TRUE |});
  let got = collect engine "halves" in
  ignore (run engine);
  check_rows "every other packet, counted once each"
    ["\"0\""; "\"2\""; "\"4\""; "\"6\""; "\"8\""] (got ());
  check Alcotest.int "one call per packet" 10 !calls

(* ------------------- direct consumers of a source ----------------------- *)

(* Whatever reads a Protocol source's stream other than an LFTA gets
   every field, payload included, whatever the LFTAs beside it read. *)
let tcp_tuples packets =
  List.filter_map Gigascope.Default_protocols.tcp.Gigascope.Default_protocols.interpret packets

let port80_select = {| DEFINE { query_name p80; } SELECT time, destport FROM eth0.tcp WHERE destport = 80 |}

let test_source_on_tuple_every_field () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" payload_packets;
  ignore (install engine port80_select);
  let p80 = collect engine "p80" in
  let src = collect engine "eth0.tcp" in
  ignore (run engine);
  check_rows "the query" ["0,80"; "0,80"; "0,80"] (p80 ());
  check Alcotest.(list string) "every field of every packet"
    (List.map row_to_string (tcp_tuples payload_packets))
    (List.map row_to_string (src ()))

let test_source_subscribe_every_field () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" payload_packets;
  ignore (install engine port80_select);
  let chan = Result.get_ok (E.subscribe engine "eth0.tcp") in
  ignore (run engine);
  let rec drain acc =
    match Rts.Channel.pop_batch chan with
    | Some b -> drain (List.rev_append (Array.to_list (Rts.Batch.tuples b)) acc)
    | None -> List.rev acc
  in
  check Alcotest.(list string) "every field of every packet"
    (List.map row_to_string (tcp_tuples payload_packets))
    (List.map row_to_string (drain []))

let test_custom_function_registration () =
  let engine = E.create () in
  (* a user function: port class, as the paper's analysts would add *)
  E.register_function engine
    (Rts.Func.pure ~name:"port_class" ~arg_tys:[Rts.Ty.Int] ~ret_ty:Rts.Ty.Str (fun args ->
         match args.(0) with
         | Value.Int p when p < 1024 -> Some (Value.Str "well-known")
         | Value.Int _ -> Some (Value.Str "ephemeral")
         | _ -> None));
  E.add_packet_list_interface engine ~name:"eth0"
    [tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 ""; tcp_pkt 0.2 "10.0.0.1" "10.0.0.2" 1 5000 ""];
  ignore
    (install engine
       {| DEFINE { query_name classes; }
          SELECT time, port_class(destport) as cls FROM eth0.tcp WHERE protocol = 6 |});
  let got = collect engine "classes" in
  ignore (run engine);
  check_rows "user function applied" ["0,\"well-known\""; "0,\"ephemeral\""] (got ())

(* ------------------------------ merge ----------------------------------- *)

let test_merge_exact_order () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1 80 ""; tcp_pkt 3.0 "10.0.0.1" "10.0.0.2" 1 80 ""];
  E.add_packet_list_interface engine ~name:"eth1"
    [tcp_pkt 2.0 "10.0.0.3" "10.0.0.4" 1 80 ""; tcp_pkt 4.0 "10.0.0.3" "10.0.0.4" 1 80 ""];
  ignore
    (install engine
       {|
       DEFINE { query_name a; } SELECT timestamp, srcip FROM eth0.tcp
       DEFINE { query_name b; } SELECT timestamp, srcip FROM eth1.tcp
       DEFINE { query_name m; } MERGE x.timestamp : y.timestamp FROM a x, b y
     |});
  let got = collect engine "m" in
  ignore (run engine);
  check_rows "globally time-ordered union"
    ["1,10.0.0.1"; "2,10.0.0.3"; "3,10.0.0.1"; "4,10.0.0.3"]
    (got ())

(* ------------------------------- join ----------------------------------- *)

let test_join_exact () =
  let engine = E.create () in
  (* dns queries on eth0, responses on eth1; join on time window + ip *)
  E.add_packet_list_interface engine ~name:"eth0"
    [
      udp_pkt 1.0 "10.0.0.1" "8.8.8.8" 5353 53 "q1";
      udp_pkt 5.0 "10.0.0.2" "8.8.8.8" 5354 53 "q2";
    ];
  E.add_packet_list_interface engine ~name:"eth1"
    [
      udp_pkt 1.5 "8.8.8.8" "10.0.0.1" 53 5353 "r1"; (* within 1s of q1 *)
      udp_pkt 9.0 "8.8.8.8" "10.0.0.2" 53 5354 "r2"; (* too late for q2 *)
    ];
  ignore
    (install engine
       {|
       DEFINE { query_name queries; }
       SELECT time, srcip, srcport FROM eth0.udp WHERE destport = 53

       DEFINE { query_name answers; }
       SELECT time, destip, destport FROM eth1.udp WHERE srcport = 53

       DEFINE { query_name paired; }
       SELECT q.time, q.srcip
       FROM queries q, answers a
       WHERE q.time >= a.time - 2 and q.time <= a.time + 2
         and q.srcip = a.destip and q.srcport = a.destport
     |});
  let got = collect engine "paired" in
  ignore (run engine);
  check_rows "only the in-window pair joins" ["1,10.0.0.1"] (got ())

(* ------------------------------ sampling -------------------------------- *)

let test_sampling () =
  let engine = E.create () in
  let packets = List.init 1000 (fun i -> tcp_pkt (float_of_int i /. 1000.0) "10.0.0.1" "10.0.0.2" 1 80 "") in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  ignore
    (install engine
       {| DEFINE { query_name sampled; }
          SELECT time FROM eth0.tcp WHERE protocol = 6 SAMPLE 0.2 |});
  let got = collect engine "sampled" in
  ignore (run engine);
  let n = List.length (got ()) in
  check Alcotest.bool (Printf.sprintf "~20%% sampled (got %d)" n) true (n > 120 && n < 280)

(* SAMPLE compiles into the HFTA select's predicate, seeded per query
   instance from the engine's seed sequence. *)
let sampled_rows ?(rate = "0.5") () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    (List.init 200 (fun i -> tcp_pkt (float_of_int i /. 100.0) "10.0.0.1" "10.0.0.2" i 80 ""));
  ignore
    (install engine
       (Printf.sprintf
          {| DEFINE { query_name sampled; }
             SELECT time, srcport FROM eth0.tcp WHERE protocol = 6 SAMPLE %s |}
          rate));
  let got = collect engine "sampled" in
  ignore (run engine);
  List.map row_to_string (got ())

let test_sample_extremes () =
  check Alcotest.int "SAMPLE 0 keeps none" 0 (List.length (sampled_rows ~rate:"0.0" ()));
  check Alcotest.int "SAMPLE 1 keeps all" 200 (List.length (sampled_rows ~rate:"1.0" ()))

let test_sample_replays () =
  let a = sampled_rows () and b = sampled_rows () in
  check Alcotest.(list string) "same seed, same sample" a b;
  let n = List.length a in
  check Alcotest.bool (Printf.sprintf "roughly half (got %d)" n) true (n > 70 && n < 130)

(* ----------------------------- pcap replay ------------------------------ *)

let test_pcap_interface_end_to_end () =
  let path = Filename.temp_file "gs_e2e" ".pcap" in
  let w = Gigascope_packet.Pcap.open_writer path in
  Gigascope_packet.Pcap.write_packet w (tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1 80 "hello");
  Gigascope_packet.Pcap.write_packet w (tcp_pkt 2.0 "10.0.0.1" "10.0.0.2" 1 22 "ssh");
  Gigascope_packet.Pcap.close_writer w;
  let engine = E.create () in
  (match E.add_pcap_interface engine ~name:"eth0" path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore
    (install engine
       {| DEFINE { query_name from_pcap; }
          SELECT time, destport, data_length FROM eth0.tcp WHERE destport = 80 |});
  let got = collect engine "from_pcap" in
  ignore (run engine);
  Sys.remove path;
  check_rows "replayed capture queried" ["1,80,5"] (got ())

(* ------------------------- NIC data reduction --------------------------- *)

let test_nic_filter_reduces_delivery () =
  let mk capability =
    let engine = E.create () in
    E.add_packet_list_interface engine ~name:"eth0" ~capability
      (List.init 100 (fun i ->
           tcp_pkt (float_of_int i /. 100.0) "10.0.0.1" "10.0.0.2" 1
             (if i mod 10 = 0 then 80 else 443)
             "ppp"));
    ignore
      (install engine
         {| DEFINE { query_name web80; }
            SELECT time, destport FROM eth0.tcp WHERE protocol = 6 and destport = 80 |});
    let got = collect engine "web80" in
    ignore (run engine);
    (engine, List.length (got ()))
  in
  let eng_dumb, n_dumb = mk E.Cap_none in
  let eng_bpf, n_bpf = mk E.Cap_bpf in
  check Alcotest.int "same query answer regardless of NIC" n_dumb n_bpf;
  let stats_of eng =
    match E.nic_of eng "eth0" with
    | Some nic -> (Gigascope_nic.Nic.stats nic).Gigascope_nic.Nic.packets_delivered
    | None -> Alcotest.fail "nic missing"
  in
  check Alcotest.int "dumb card delivers everything" 100 (stats_of eng_dumb);
  check Alcotest.int "filtering card delivers only matches" 10 (stats_of eng_bpf)

(* A dumb card is charged from each packet's encoded length, never its
   wire bytes: its counters must read exactly what delivering the encoded
   frames to a fresh card reads. *)
let test_dumb_card_counters () =
  let module Nic = Gigascope_nic.Nic in
  let gen =
    Gigascope_traffic.Gen.create
      { Gigascope_traffic.Gen.default with seed = 7; duration = 0.05; mean_payload = 600 }
  in
  let rec take acc = match Gigascope_traffic.Gen.next gen with Some p -> take (p :: acc) | None -> acc in
  let big = udp_pkt 0.0 "10.0.0.1" "10.0.0.2" 5 6 (String.make 3000 'f') in
  let arp =
    let b = Bytes.make 42 '\001' in
    Gigascope_packet.Bytes_util.set_u16 b 12 0x0806;
    Result.get_ok (Packet.decode b)
  in
  let ping =
    Packet.icmp ~src:(ip "10.0.0.3") ~dst:(ip "10.0.0.4")
      ~icmp_type:Gigascope_packet.Icmp.type_echo_request ~payload:(Bytes.of_string "ping") ()
  in
  let packets = (arp :: ping :: Gigascope_packet.Frag.fragment ~mtu:576 big) @ List.rev (take []) in
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" ~capability:E.Cap_none packets;
  ignore (install engine {| DEFINE { query_name seen; } SELECT time FROM eth0.tcp |});
  ignore (run engine);
  let reference = Nic.create () in
  List.iter (fun p -> ignore (Nic.deliver reference (Packet.encode p))) packets;
  let got =
    match E.nic_of engine "eth0" with Some nic -> Nic.stats nic | None -> Alcotest.fail "nic missing"
  in
  let want = Nic.stats reference in
  check Alcotest.bool "packets enough to matter" true (List.length packets > 100);
  check Alcotest.int "packets seen" want.Nic.packets_seen got.Nic.packets_seen;
  check Alcotest.int "packets delivered" want.Nic.packets_delivered got.Nic.packets_delivered;
  check Alcotest.int "bytes seen" want.Nic.bytes_seen got.Nic.bytes_seen;
  check Alcotest.int "bytes delivered" want.Nic.bytes_delivered got.Nic.bytes_delivered

(* ------------------------ LFTA batch via engine ------------------------- *)

let test_lfta_after_start_rejected () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" [tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 ""];
  ignore
    (install engine
       {| DEFINE { query_name first; } SELECT time FROM eth0.tcp |});
  ignore (run engine);
  (* a new protocol query needs a new LFTA: must be refused after start *)
  (match
     E.install_query engine ~name:"late" "SELECT time, destport FROM eth0.tcp WHERE destport = 80"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "new LFTA accepted after the RTS started");
  (* but a new HFTA over an existing stream is fine *)
  match E.install_query engine ~name:"late_hfta" "SELECT time FROM first" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("HFTA after start rejected: " ^ e)

(* ------------------------- heartbeat end-to-end ------------------------- *)

let test_heartbeats_bound_merge_buffer () =
  (* same setup as bench a3 but through the public API: fast + slow custom
     sources, MERGE in GSQL, measure the merge operator's high water *)
  let schema =
    Rts.Schema.make
      [
        { Rts.Schema.name = "ts"; ty = Rts.Ty.Int; order = Rts.Order_prop.Monotone Rts.Order_prop.Asc };
      ]
  in
  let run_one ~heartbeats =
    let engine = E.create ~default_capacity:200_000 () in
    let fast_i = ref 0 in
    Result.get_ok
      (E.add_custom_source engine ~name:"fast" ~schema
         ~pull:(fun () ->
           if !fast_i >= 50_000 then None
           else begin
             let v = !fast_i in
             incr fast_i;
             Some (Rts.Item.Tuple [| Value.Int v |])
           end)
         ~clock:(fun () -> [(0, Value.Int !fast_i)]));
    let slow_sent = ref false in
    Result.get_ok
      (E.add_custom_source engine ~name:"slow" ~schema
         ~pull:(fun () ->
           if not !slow_sent then begin
             slow_sent := true;
             Some (Rts.Item.Tuple [| Value.Int 0 |])
           end
           else if !fast_i >= 50_000 then None
           else Some Rts.Item.Flush)
         ~clock:(fun () -> [(0, Value.Int !fast_i)]));
    let insts =
      install engine {| DEFINE { query_name m; } MERGE a.ts : b.ts FROM fast a, slow b |}
    in
    (match E.run engine ~heartbeats () with Ok _ -> () | Error e -> Alcotest.fail e);
    match (List.hd insts).Gsql.Codegen.merges with
    | [(_, merge)] -> Rts.Merge_op.high_water merge
    | _ -> Alcotest.fail "expected one merge operator"
  in
  let hw_on = run_one ~heartbeats:true in
  let hw_off = run_one ~heartbeats:false in
  check Alcotest.bool
    (Printf.sprintf "heartbeats bound the buffer (on=%d, off=%d)" hw_on hw_off)
    true
    (hw_on * 10 < hw_off)

let test_multiple_instances_different_params () =
  (* "The RTS can execute multiple instances of the same LFTA, each with
     different parameters" (Section 3) *)
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 "";
      tcp_pkt 0.2 "10.0.0.1" "10.0.0.2" 1 443 "";
      tcp_pkt 0.3 "10.0.0.1" "10.0.0.2" 1 80 "";
    ];
  let text name =
    Printf.sprintf
      {| DEFINE { query_name %s; }
         SELECT time FROM eth0.tcp WHERE protocol = 6 and destport = $port |}
      name
  in
  ignore (install engine ~params:[("port", Value.Int 80)] (text "watch80"));
  ignore (install engine ~params:[("port", Value.Int 443)] (text "watch443"));
  let got80 = collect engine "watch80" and got443 = collect engine "watch443" in
  ignore (run engine);
  check Alcotest.int "instance 1 sees its port" 2 (List.length (got80 ()));
  check Alcotest.int "instance 2 sees its port" 1 (List.length (got443 ()))

(* ------------------- protocol-level merge and join ---------------------- *)

let test_merge_directly_over_protocols () =
  (* MERGE straight over two Protocol sources: the splitter inserts an
     identity-projection LFTA per interface *)
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1 80 ""; tcp_pkt 3.0 "10.0.0.1" "10.0.0.2" 1 80 ""];
  E.add_packet_list_interface engine ~name:"eth1"
    [tcp_pkt 2.0 "10.0.0.3" "10.0.0.4" 1 80 ""; tcp_pkt 4.0 "10.0.0.3" "10.0.0.4" 1 80 ""];
  let insts =
    install engine
      {| DEFINE { query_name direct_merge; }
         MERGE a.timestamp : b.timestamp FROM eth0.tcp a, eth1.tcp b |}
  in
  let inst = List.hd insts in
  check Alcotest.int "two feeders + merge" 3 (List.length inst.Gsql.Codegen.node_names);
  let got = collect engine "direct_merge" in
  ignore (run engine);
  let stamps =
    List.filter_map
      (fun t -> match t.(1) with Value.Float f -> Some f | _ -> None)
      (got ())
  in
  check Alcotest.(list (float 1e-9)) "ordered union of both links" [1.0; 2.0; 3.0; 4.0] stamps

let test_join_directly_over_protocols () =
  (* join over two Protocol sources with a side predicate: the conjunct
     referencing only one side is pushed into that side's feeder LFTA *)
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      udp_pkt 1.0 "10.0.0.1" "8.8.8.8" 1111 53 "q";
      udp_pkt 2.0 "10.0.0.2" "8.8.8.8" 2222 99 "not-dns";
    ];
  E.add_packet_list_interface engine ~name:"eth1"
    [
      udp_pkt 1.2 "8.8.8.8" "10.0.0.1" 53 1111 "r";
      udp_pkt 2.1 "8.8.8.8" "10.0.0.2" 99 2222 "r2";
    ];
  let insts =
    install engine
      {| DEFINE { query_name direct_join; }
         SELECT q.time, q.srcip
         FROM eth0.udp q, eth1.udp r
         WHERE q.time >= r.time - 1 and q.time <= r.time + 1
           and q.destport = 53 and q.srcip = r.destip |}
  in
  let inst = List.hd insts in
  check Alcotest.int "two feeders + join" 3 (List.length inst.Gsql.Codegen.node_names);
  let got = collect engine "direct_join" in
  ignore (run engine);
  check_rows "side predicate pushed down, window respected" ["1,10.0.0.1"] (got ())

(* ---------------------- live-application features ----------------------- *)

let test_live_parameter_change () =
  (* "query parameters ... can be changed on-the-fly" (Section 3): flip the
     watched port mid-run via the scheduler's round hook *)
  let engine = E.create () in
  let packets =
    List.init 2000 (fun i ->
        tcp_pkt (float_of_int i /. 1000.0) "10.0.0.1" "10.0.0.2" 1
          (if i mod 2 = 0 then 80 else 443)
          "")
  in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  let insts =
    install engine
      {| DEFINE { query_name live; }
         SELECT time, destport FROM eth0.tcp WHERE destport = $p |}
  in
  let inst = List.hd insts in
  Gsql.Codegen.set_param inst "p" (Value.Int 80);
  let seen80 = ref 0 and seen443 = ref 0 in
  Result.get_ok
    (E.on_tuple engine "live" (fun t ->
         match t.(1) with
         | Value.Int 80 -> incr seen80
         | Value.Int 443 -> incr seen443
         | _ -> ()));
  let flipped = ref false in
  (match
     E.run engine ~quantum:16
       ~on_round:(fun round ->
         if round = 20 && not !flipped then begin
           flipped := true;
           Gsql.Codegen.set_param inst "p" (Value.Int 443)
         end)
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "matched port 80 before the flip" true (!seen80 > 0);
  check Alcotest.bool "matched port 443 after the flip" true (!seen443 > 0);
  check Alcotest.bool "neither saw everything" true (!seen80 < 1000 && !seen443 < 1000)

let test_flush_mid_stream () =
  (* aggregation with no ordered group key: output only arrives when the
     analyst flushes the query (Section 2.2: "the user can obtain output by
     flushing the query") *)
  let engine = E.create () in
  let packets =
    List.init 100 (fun i -> tcp_pkt (float_of_int i) "10.0.0.1" "10.0.0.2" 1 80 "x")
  in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  ignore
    (install engine
       {| DEFINE { query_name unkeyed; }
          SELECT destport, count(*) as c FROM eth0.tcp GROUP BY destport |});
  let flushes_seen = ref [] in
  Result.get_ok
    (E.on_tuple engine "unkeyed" (fun t ->
         match t.(1) with Value.Int c -> flushes_seen := c :: !flushes_seen | _ -> ()));
  (match
     E.run engine ~quantum:8
       ~on_round:(fun round ->
         if round = 5 then Result.get_ok (E.flush engine "unkeyed"))
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* one partial emission from the flush, one final from EOF, summing to
     the full count *)
  match List.rev !flushes_seen with
  | [partial; rest] ->
      check Alcotest.bool "partial before eof" true (partial > 0 && partial < 100);
      check Alcotest.int "everything accounted for" 100 (partial + rest)
  | other -> Alcotest.failf "expected two emissions, got %d" (List.length other)

(* A round drains everything its packets produced: with a quantum far
   below an epoch flush (200 partials per epoch boundary here), no node's
   input channel still holds items when the round ends. *)
let test_round_drains_downstream () =
  let engine = E.create ~shards:1 () in
  let packets =
    List.init 900 (fun i ->
        tcp_pkt
          (float_of_int (i / 300) +. (float_of_int (i mod 300) /. 1000.0))
          (Printf.sprintf "10.0.%d.%d" (i mod 200 / 100) (i mod 100))
          "10.1.0.1" 1 80 "x")
  in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  ignore
    (install engine
       {| DEFINE { query_name per_src; }
          SELECT tb, srcip, count(*) as cnt FROM eth0.tcp GROUP BY time/1 as tb, srcip |});
  let got = collect engine "per_src" in
  let nodes = Rts.Manager.nodes (E.manager engine) in
  let late = ref [] in
  (match
     E.run engine ~quantum:16
       ~on_round:(fun round ->
         List.iter
           (fun node ->
             Array.iter
               (fun (_, chan) ->
                 if not (Rts.Channel.is_empty chan) then
                   late := Printf.sprintf "round %d: %s" round (Rts.Node.name node) :: !late)
               (Rts.Node.inputs node))
           nodes)
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "every group reported" 600 (List.length (got ()));
  check Alcotest.(list string) "no input left waiting at a round's end" [] (List.rev !late)

(* With quantum 1 the source hands out one packet per round. Epoch 0's
   row must reach the subscriber in the round that hands out epoch 1's
   first packet: the LFTA flushes its table and announces epoch 1, and
   the HFTA closes epoch 0 on that bound instead of waiting for an epoch-1
   partial, which the LFTA only emits once epoch 2 begins. *)
let test_epoch_closes_on_lfta_bound () =
  let engine = E.create ~shards:1 () in
  let stamps = [ 0.1; 0.4; 0.7; 1.2; 1.5; 1.8; 2.3; 2.6 ] in
  let round = ref 1 in
  let handed_out = ref [] in
  E.add_interface engine ~name:"eth0"
    ~feed:(fun () ->
      let remaining = ref stamps in
      fun () ->
        match !remaining with
        | [] -> None
        | ts :: rest ->
            remaining := rest;
            handed_out := (ts, !round) :: !handed_out;
            Some (tcp_pkt ts "10.0.0.1" "10.0.0.2" 1 80 "x"))
    ();
  ignore
    (install engine
       {| DEFINE { query_name per_sec; }
          SELECT tb, count(*) as cnt FROM eth0.tcp GROUP BY time/1 as tb |});
  let arrived = ref [] in
  Result.get_ok
    (E.on_tuple engine "per_sec" (fun row -> arrived := (row_to_string row, !round) :: !arrived));
  (match E.run engine ~quantum:1 ~on_round:(fun r -> round := r + 1) () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let round_of_packet ts = List.assoc ts !handed_out in
  let rows = List.rev !arrived in
  check Alcotest.(list string) "rows" [ "0,3"; "1,3"; "2,2" ] (List.map fst rows);
  check Alcotest.int "epoch 0 closes with epoch 1's first packet" (round_of_packet 1.2)
    (List.assoc "0,3" rows);
  check Alcotest.int "epoch 1 closes with epoch 2's first packet" (round_of_packet 2.3)
    (List.assoc "1,3" rows)

(* The direct-mapped LFTA table's behaviour, pinned: which groups
   collide is fixed by the slot hash, and what a collision emits by the
   flush order, so any drift in either moves these exact counts. The
   traffic is the benchmark's flow-local shape; execution knobs are
   fixed so every CI pass runs the same unsharded, unbatched plan. *)
let test_lfta_eviction_pinned () =
  let packets =
    let gen =
      Gigascope_traffic.Gen.create
        {
          Gigascope_traffic.Gen.default with
          seed = 5;
          duration = 1000.0;
          rate_mbps = 150.0;
          n_flows = 2048;
        }
    in
    List.init 20_000 (fun _ -> Option.get (Gigascope_traffic.Gen.next gen))
  in
  let counts bits =
    let engine = E.create ~shards:1 () in
    E.add_packet_list_interface engine ~name:"eth0" packets;
    let program =
      Printf.sprintf
        {|
        DEFINE { query_name e2_subnets; lfta_bits %d; }
        SELECT tb, truncate_ip(srcip, 16) as subnet, count(*) as cnt
        FROM eth0.tcp
        WHERE ipversion = 4
        GROUP BY time/1 as tb, truncate_ip(srcip, 16) as subnet

        DEFINE { query_name e2_flows; lfta_bits %d; }
        SELECT tb, srcip, destip, srcport, destport, count(*) as pkts, sum(len) as bytes
        FROM eth0.tcp
        WHERE ipversion = 4
        GROUP BY time/1 as tb, srcip, destip, srcport, destport
        |}
        bits bits
    in
    let insts = install engine program in
    (match E.run engine ~parallel:1 ~batch:1 ~shards:1 () with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    List.concat_map
      (fun inst ->
        List.map
          (fun (_, agg) ->
            ( inst.Gsql.Codegen.inst_name,
              Rts.Lfta_aggregate.evictions agg,
              Rts.Lfta_aggregate.emitted agg ))
          inst.Gsql.Codegen.lfta_aggs)
      insts
  in
  let show (q, ev, em) = Printf.sprintf "%s evictions=%d emitted=%d" q ev em in
  List.iter
    (fun (bits, expected) ->
      check
        Alcotest.(list string)
        (Printf.sprintf "lfta_bits %d" bits)
        (List.map show expected)
        (List.map show (counts bits)))
    [
      (4, [ ("e2_subnets", 17095, 17111); ("e2_flows", 16870, 16886) ]);
      (8, [ ("e2_subnets", 11831, 12087); ("e2_flows", 11484, 11740) ]);
      (12, [ ("e2_subnets", 1952, 3452); ("e2_flows", 2132, 3700) ]);
    ]

let test_per_node_report () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1 80 ""];
  ignore (install engine {| DEFINE { query_name sr; } SELECT time FROM eth0.tcp |});
  ignore (run engine);
  let report = E.trace_report engine in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions the source" true (contains report "eth0.tcp");
  check Alcotest.bool "mentions the query" true (contains report "sr");
  check Alcotest.bool "kinds listed" true (contains report "lfta")

let test_three_way_merge () =
  let engine = E.create () in
  let mk name ts_list =
    E.add_packet_list_interface engine ~name
      (List.map (fun ts -> tcp_pkt ts "10.0.0.1" "10.0.0.2" 1 80 "") ts_list)
  in
  mk "e0" [1.0; 4.0];
  mk "e1" [2.0; 5.0];
  mk "e2" [3.0; 6.0];
  ignore
    (install engine
       {|
       DEFINE { query_name s0; } SELECT timestamp FROM e0.tcp
       DEFINE { query_name s1; } SELECT timestamp FROM e1.tcp
       DEFINE { query_name s2; } SELECT timestamp FROM e2.tcp
       DEFINE { query_name m3; } MERGE a.timestamp : b.timestamp : c.timestamp
       FROM s0 a, s1 b, s2 c
     |});
  let got = collect engine "m3" in
  ignore (run engine);
  check_rows "three-way merge in order" ["1"; "2"; "3"; "4"; "5"; "6"] (got ())

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "exact selection" `Quick test_selection_exact;
          Alcotest.test_case "exact aggregation (split)" `Quick test_aggregation_exact;
          Alcotest.test_case "avg sub/super split" `Quick test_avg_split_exact;
          Alcotest.test_case "having" `Quick test_having_exact;
          Alcotest.test_case "composition" `Quick test_composition;
          Alcotest.test_case "query parameters" `Quick test_query_parameters;
          Alcotest.test_case "missing parameter" `Quick test_missing_parameter_discards;
          Alcotest.test_case "getlpmid partial fn" `Quick test_getlpmid_partial_function;
          Alcotest.test_case "regex UDF split" `Quick test_regex_udf_split_pipeline;
          Alcotest.test_case "payloads beyond port 80" `Quick test_payload_beyond_port80;
          Alcotest.test_case "payload query without guard" `Quick test_payload_without_guard;
          Alcotest.test_case "payload guard with a parameter" `Quick test_payload_guard_with_param;
          Alcotest.test_case "payloads in a sharded select" `Quick test_payload_sharded_select;
          Alcotest.test_case "payload guard skips calls" `Quick test_payload_guard_skips_calls;
          Alcotest.test_case "source on_tuple: every field" `Quick test_source_on_tuple_every_field;
          Alcotest.test_case "source subscribe: every field" `Quick test_source_subscribe_every_field;
          Alcotest.test_case "custom function" `Quick test_custom_function_registration;
          Alcotest.test_case "merge exact order" `Quick test_merge_exact_order;
          Alcotest.test_case "join exact" `Quick test_join_exact;
          Alcotest.test_case "sampling" `Quick test_sampling;
          Alcotest.test_case "SAMPLE extremes keep none or all" `Quick test_sample_extremes;
          Alcotest.test_case "SAMPLE replays for a seed" `Quick test_sample_replays;
          Alcotest.test_case "pcap replay" `Quick test_pcap_interface_end_to_end;
          Alcotest.test_case "NIC data reduction" `Quick test_nic_filter_reduces_delivery;
          Alcotest.test_case "dumb card counters" `Quick test_dumb_card_counters;
          Alcotest.test_case "LFTA batch restriction" `Quick test_lfta_after_start_rejected;
          Alcotest.test_case "heartbeats bound merge" `Quick test_heartbeats_bound_merge_buffer;
          Alcotest.test_case "live parameter change" `Quick test_live_parameter_change;
          Alcotest.test_case "flush mid-stream" `Quick test_flush_mid_stream;
          Alcotest.test_case "round drains downstream" `Quick test_round_drains_downstream;
          Alcotest.test_case "epoch closes on LFTA bound" `Quick test_epoch_closes_on_lfta_bound;
          Alcotest.test_case "LFTA evictions pinned" `Quick test_lfta_eviction_pinned;
          Alcotest.test_case "stats report" `Quick test_per_node_report;
          Alcotest.test_case "three-way merge" `Quick test_three_way_merge;
          Alcotest.test_case "merge over protocols" `Quick test_merge_directly_over_protocols;
          Alcotest.test_case "join over protocols" `Quick test_join_directly_over_protocols;
          Alcotest.test_case "multi-instance params" `Quick test_multiple_instances_different_params;
        ] );
    ]
